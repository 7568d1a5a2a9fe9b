# Source-level wiring lint: every port goes through the grant layer.
#
# Raw System::window* management calls — including the prestaging
# hint, windowPrestage, and its hand-back mirror, windowReclaim — are
# forbidden in src/libos, src/apps, src/baselines and bench outside
# grant.cc: that file is the single place the window discipline
# (stage/open/close/reclaim, hot re-staging, prestage hints) is
# implemented. The baselines (the crash lab, the Fig. 6/10
# deployments) use CubicleFileApi like any other port. There are no
# whitelisted exemptions; even the window microbenchmarks measure the
# grant-layer wrappers, which is what every port actually pays.
#
# Usage: cmake -DSRC_DIR=<repo>/src [-DBENCH_DIR=<repo>/bench] -P grant_lint.cmake

if(NOT DEFINED SRC_DIR)
    message(FATAL_ERROR "grant_lint: pass -DSRC_DIR=<repo>/src")
endif()

file(GLOB_RECURSE lint_files
    "${SRC_DIR}/libos/*.h" "${SRC_DIR}/libos/*.cc"
    "${SRC_DIR}/apps/*.h" "${SRC_DIR}/apps/*.cc"
    "${SRC_DIR}/baselines/*.h" "${SRC_DIR}/baselines/*.cc")
if(DEFINED BENCH_DIR)
    file(GLOB_RECURSE bench_files "${BENCH_DIR}/*.h" "${BENCH_DIR}/*.cc")
    list(APPEND lint_files ${bench_files})
endif()

set(violations "")
foreach(f IN LISTS lint_files)
    get_filename_component(fname "${f}" NAME)
    if(fname STREQUAL "grant.cc")
        continue()
    endif()
    file(STRINGS "${f}" lines)
    set(lineno 0)
    foreach(line IN LISTS lines)
        math(EXPR lineno "${lineno} + 1")
        if(line MATCHES
           "window(Init|Add|Remove|Open|Close|CloseAll|Destroy|SetHot|Prestage|Reclaim)[ \t]*\\(")
            string(APPEND violations "${f}:${lineno}: ${line}\n")
        endif()
    endforeach()
endforeach()

if(violations)
    message(FATAL_ERROR
        "raw System::window* call sites outside grant.cc — port them "
        "onto the grant layer (libos/grant.h):\n${violations}")
endif()
message(STATUS "grant_lint: src/libos, src/apps, src/baselines and bench are clean")
