/**
 * @file
 * perfbench: the repository benchmark harness.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE]
 *
 * Prints one JSON record on stdout: provenance, attempted and failed
 * operation counts, and the metrics of the run (end-to-end with
 * --trace 0, per-layer with --trace 1). perfbench/run.py builds this
 * program and turns the record into the benchmark's result line.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "harness/common.h"

namespace {

using cubicleos::perfbench::Outcome;
using cubicleos::perfbench::RunConfig;

#if defined(CUBICLE_LOCKDEP) && CUBICLE_LOCKDEP
constexpr bool kLockdep = true;
#else
constexpr bool kLockdep = false;
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/** Prints @p v with every significant digit, as JSON. */
void
printNumber(double v)
{
    std::printf("%.17g", v);
}

void
printString(const std::string &s)
{
    std::putchar('"');
    for (char c : s) {
        if (c == '"' || c == '\\')
            std::putchar('\\');
        std::putchar(c);
    }
    std::putchar('"');
}

void
printRecord(const RunConfig &cfg, const Outcome &out)
{
    std::printf("{\"workload\":");
    printString(cfg.workload);
    std::printf(",\"seed\":%llu,\"seconds\":",
                static_cast<unsigned long long>(cfg.seed));
    printNumber(cfg.seconds);
    std::printf(",\"trace\":%d,\"provenance\":{\"build_type\":",
                cfg.trace ? 1 : 0);
    printString(PERFBENCH_BUILD_TYPE);
    std::printf(",\"lockdep\":%s,\"sanitizers\":%s,\"nproc\":%u},",
                kLockdep ? "true" : "false", kSanitized ? "true" : "false",
                std::thread::hardware_concurrency());
    std::printf("\"attempted\":%llu,\"failed\":%llu,\"info\":{",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (std::size_t i = 0; i < out.info.size(); ++i) {
        std::printf("%s", i ? "," : "");
        printString(out.info[i].first);
        std::putchar(':');
        printNumber(out.info[i].second);
    }
    std::printf("},\"metrics\":{");
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        std::printf("%s", i ? "," : "");
        printString(out.metrics[i].name);
        std::printf(":{\"value\":");
        printNumber(out.metrics[i].value);
        std::printf(",\"unit\":");
        printString(out.metrics[i].unit);
        std::putchar('}');
    }
    std::printf("}}\n");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            cfg.workload = val;
        else if (key == "--seed")
            cfg.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            cfg.seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            cfg.trace = std::strcmp(val, "0") != 0;
        else if (key == "--trace-out")
            cfg.traceOut = val;
        else
            return usage();
    }
    if (argc % 2 == 0 || cfg.workload.empty() || !(cfg.seconds > 0))
        return usage();

    if (kLockdep || kSanitized) {
        std::fprintf(stderr,
                     "perfbench: refusing to report: built with%s%s; "
                     "timings would be inflated\n",
                     kLockdep ? " CUBICLE_LOCKDEP" : "",
                     kSanitized ? " sanitizers" : "");
        return 3;
    }

    try {
        printRecord(cfg, cubicleos::perfbench::runWorkload(cfg));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
