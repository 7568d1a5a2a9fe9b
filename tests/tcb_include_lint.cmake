# Source-level TCB boundary lint: the trusted core includes only itself.
#
# Every quoted #include in a .h/.cc file under src/core, src/hw or
# src/mem must name a header under core/, hw/ or mem/. Anything else —
# the isolation auditor in src/audit, the library OS, the applications,
# the baselines — is outside the trusted core, and an include is the
# first step of code moving back into it. System headers (<...>) are
# not checked.
#
# Usage: cmake -DSRC_DIR=<repo>/src -P tcb_include_lint.cmake

if(NOT DEFINED SRC_DIR)
    message(FATAL_ERROR "tcb_include_lint: pass -DSRC_DIR=<repo>/src")
endif()

file(GLOB_RECURSE lint_files
    "${SRC_DIR}/core/*.h" "${SRC_DIR}/core/*.cc"
    "${SRC_DIR}/hw/*.h" "${SRC_DIR}/hw/*.cc"
    "${SRC_DIR}/mem/*.h" "${SRC_DIR}/mem/*.cc")

set(violations "")
foreach(f IN LISTS lint_files)
    file(STRINGS "${f}" lines)
    set(lineno 0)
    foreach(line IN LISTS lines)
        math(EXPR lineno "${lineno} + 1")
        if(line MATCHES "^[ \t]*#[ \t]*include[ \t]*\"([^\"]*)\""
           AND NOT CMAKE_MATCH_1 MATCHES "^(core|hw|mem)/")
            string(APPEND violations "${f}:${lineno}: ${line}\n")
        endif()
    endforeach()
endforeach()

if(violations)
    message(FATAL_ERROR
        "trusted-core sources include headers outside core/, hw/ and "
        "mem/ — keep non-TCB code (src/audit, libos, apps) out of "
        "cubicle_core, cubicle_hw and cubicle_mem:\n${violations}")
endif()
message(STATUS "tcb_include_lint: src/core, src/hw and src/mem are closed")
