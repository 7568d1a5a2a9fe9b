/**
 * @file
 * Table 2: sizes of the CubicleOS components (SLOC).
 *
 * The paper reports the implementation effort: monitor 3,000 C +
 * 110 asm; builder 640 Python; Unikraft window support 600; SQLite
 * port 620; NGINX port 390. This binary counts the equivalent modules
 * of this reproduction (non-blank, non-comment lines) so the
 * comparison is inspectable on any checkout, then the size of the
 * whole trusted core: every source file of the TCB libraries
 * (src/core, src/hw, src/mem), by directory. The isolation linter and
 * auditor (src/audit) and the image builder (src/builder) are not in
 * the TCB; their line counts follow the TCB total, outside it.
 *
 * The TCB rows and their total are also the golden BENCH_table2_sloc.json
 * at the source root: the binary exits non-zero when they differ from
 * it, so a change to the trusted core carries its line delta in its
 * own diff. CUBICLEOS_REGEN_FIXTURES=1 rewrites the file instead.
 * Registered as the tier-1 ctest tcb_sloc_golden.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "bench/bench_util.h"

namespace {

int
slocOfFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return -1;
    int sloc = 0;
    std::string line;
    bool in_block_comment = false;
    while (std::getline(in, line)) {
        // Strip leading whitespace.
        std::size_t i = line.find_first_not_of(" \t\r");
        if (i == std::string::npos)
            continue;
        const std::string t = line.substr(i);
        if (in_block_comment) {
            if (t.find("*/") != std::string::npos)
                in_block_comment = false;
            continue;
        }
        if (t.rfind("//", 0) == 0)
            continue;
        if (t.rfind("/*", 0) == 0 || t.rfind("/**", 0) == 0) {
            if (t.find("*/") == std::string::npos)
                in_block_comment = true;
            continue;
        }
        if (t.rfind("*", 0) == 0)
            continue; // doc-comment continuation
        ++sloc;
    }
    return sloc;
}

int
slocOfFiles(const std::vector<std::string> &files)
{
    int total = 0;
    for (const auto &f : files) {
        const int n = slocOfFile(CUBICLEOS_SOURCE_DIR "/src/" + f);
        if (n < 0) {
            std::fprintf(stderr, "note: src/%s not found\n", f.c_str());
            continue;
        }
        total += n;
    }
    return total;
}

/** Lines of the .h/.cc files directly in src/@p dir (not subdirs). */
int
slocOfDir(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::directory_iterator it(CUBICLEOS_SOURCE_DIR "/src/" + dir, ec);
    if (ec) {
        std::fprintf(stderr, "note: src/%s not found\n", dir.c_str());
        return 0;
    }
    int total = 0;
    for (const fs::directory_entry &e : it) {
        const fs::path ext = e.path().extension();
        if (e.is_regular_file() && (ext == ".h" || ext == ".cc"))
            total += slocOfFile(e.path().string());
    }
    return total;
}

/**
 * Compares @p json with the committed golden, or rewrites the golden
 * under CUBICLEOS_REGEN_FIXTURES. @return the process exit code.
 */
int
checkGolden(const std::string &json)
{
    const char *path = CUBICLEOS_SOURCE_DIR "/BENCH_table2_sloc.json";
    if (std::getenv("CUBICLEOS_REGEN_FIXTURES") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        out << json;
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path);
            return 1;
        }
        std::printf("\nwrote %s\n", path);
        return 0;
    }
    std::fflush(stdout); // the table first, then the verdict
    std::ifstream in(path);
    std::stringstream committed;
    committed << in.rdbuf();
    if (in && committed.str() == json)
        return 0;
    std::fprintf(stderr,
                 "\nTCB line counts differ from %s; if the change is "
                 "intended, regenerate it with "
                 "CUBICLEOS_REGEN_FIXTURES=1.\ncommitted:\n%s\nnow:\n%s",
                 path, committed.str().c_str(), json.c_str());
    return 1;
}

} // namespace

int
main()
{
    cubicleos::bench::header(
        "Table 2: sizes of CubicleOS components (SLOC)",
        "Sartakov et al., ASPLOS'21, Table 2");

    struct RowDef {
        const char *component;
        const char *paper;
        std::vector<std::string> files;
    };
    const RowDef rows[] = {
        {"Monitor (cross-cubicle calls)", "110 asm",
         {"core/system.cc", "core/system.h"}},
        {"Monitor (all components)", "3,000 C",
         {"core/monitor.cc", "core/monitor.h", "core/window.h",
          "core/cubicle.h", "core/stats.h", "hw/mpk.h",
          "hw/page_table.cc", "hw/page_table.h", "mem/arena.cc",
          "mem/suballoc.cc", "mem/page_meta.h"}},
        {"Builder (trampoline generation)", "640 Python",
         {"core/component.h", "builder/image.cc", "builder/image.h"}},
        {"Unikraft window support", "600 C",
         {"libos/ukapi.cc", "libos/sockapi.cc"}},
        {"SQLite port", "620 C",
         {"libos/ukapi.h", "apps/minisql/speedtest.h"}},
        {"NGINX port", "390 C", {"libos/sockapi.h"}},
    };

    std::printf("%-36s %12s %14s\n", "component", "paper SLOC",
                "this repo");
    cubicleos::bench::rule('-', 64);
    for (const auto &row : rows) {
        std::printf("%-36s %12s %14d\n", row.component, row.paper,
                    slocOfFiles(row.files));
    }
    cubicleos::bench::rule('-', 64);

    // The trusted core by directory. Each row counts only the files
    // directly in its directory, so the rows add up to the total.
    const char *const tcb_dirs[] = {"core", "core/verifier", "hw", "mem"};
    std::printf("\n%-36s %27s\n", "trusted core (files per directory)",
                "this repo");
    cubicleos::bench::rule('-', 64);
    int tcb = 0;
    std::string json = "{\n  \"schema\": \"cubicleos-tcb-sloc-v1\",\n"
                       "  \"tcb\": {\n";
    const char *sep = "";
    for (const char *dir : tcb_dirs) {
        const int n = slocOfDir(dir);
        tcb += n;
        std::printf("src/%-32s %27d\n", dir, n);
        json += std::string(sep) + "    \"src/" + dir +
                "\": " + std::to_string(n);
        sep = ",\n";
    }
    json += "\n  },\n  \"total\": " + std::to_string(tcb) + "\n}\n";
    std::printf("%-36s %27d\n", "TCB total", tcb);
    cubicleos::bench::rule('-', 64);
    for (const char *dir : {"audit", "builder"}) {
        std::printf("src/%-32s %27d\n",
                    (std::string(dir) + " (outside the TCB)").c_str(),
                    slocOfDir(dir));
    }
    std::printf("\nnote: this reproduction implements every substrate "
                "from scratch, so the\nline counts bound the same "
                "responsibilities rather than matching exactly;\n"
                "the point of Table 2 — isolation with a small "
                "trusted core and a small\nper-application porting "
                "effort — is preserved.\n");
    return checkGolden(json);
}
