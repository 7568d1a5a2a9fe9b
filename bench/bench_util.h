/**
 * @file
 * Shared helpers for the figure-reproduction benchmarks.
 *
 * Reported time = real wall time of the simulation + modelled
 * hardware cycles at the paper's 2.2 GHz. Real time covers the work
 * the simulation performs natively (B-tree operations, copies, table
 * lookups); modelled cycles cover what this machine cannot execute
 * (wrpkru, pkey retags, kernel IPC, wire latency).
 */

#ifndef CUBICLEOS_BENCH_BENCH_UTIL_H_
#define CUBICLEOS_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>

#include "core/locking.h"
#include "hw/cycles.h"

namespace cubicleos::bench {

/** One measured interval. */
struct Measurement {
    double wallMs = 0;
    double modelMs = 0;
    double totalMs() const { return wallMs + modelMs; }
};

/** Times @p fn, attributing cycle growth on @p clock to the model. */
template <typename F>
Measurement
measure(hw::CycleClock &clock, F &&fn)
{
    Measurement m;
    const uint64_t cycles0 = clock.read();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    m.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    m.modelMs =
        hw::CycleClock::toNanoseconds(clock.read() - cycles0) / 1e6;
    return m;
}

/** Prints a rule line. */
inline void
rule(char c = '-', int width = 72)
{
    for (int i = 0; i < width; ++i)
        std::putchar(c);
    std::putchar('\n');
}

/**
 * Prints a benchmark header box, then a warning line when the build
 * carries a checker that inflates wall-clock time: lockdep takes a
 * backtrace on every lock acquisition, and ASan and TSan instrument
 * every memory access (figures come from `cmake --preset bench`).
 */
inline void
header(const std::string &title, const std::string &paper_ref)
{
    rule('=');
    std::printf("%s\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    rule('=');
    std::string slow = core::lockdep::kEnabled ? " lockdep" : "";
#if defined(__SANITIZE_ADDRESS__)
    slow += " asan";
#endif
#if defined(__SANITIZE_THREAD__)
    slow += " tsan";
#endif
    if (!slow.empty()) {
        std::printf("warning: built with%s; wall-clock figures are "
                    "inflated (configure with: cmake --preset bench)\n",
                    slow.c_str());
    }
}

#if defined(CUBICLEOS_GIT_SHA) && defined(CUBICLEOS_BUILD_TYPE)
/**
 * Writes the provenance fields every committed BENCH_*.json carries,
 * one per line at @p indent, each followed by a comma: the commit
 * (`git describe --dirty` at configure time), the build type, whether
 * lockdep is compiled in, and the host's core count. The two macros
 * come from bench/CMakeLists.txt.
 */
inline void
writeProvenance(std::FILE *json, const char *indent)
{
    std::fprintf(json,
                 "%s\"git_sha\": \"%s\",\n"
                 "%s\"build_type\": \"%s\",\n"
                 "%s\"lockdep\": %s,\n"
                 "%s\"hardware_concurrency\": %u,\n",
                 indent, CUBICLEOS_GIT_SHA, indent, CUBICLEOS_BUILD_TYPE,
                 indent, core::lockdep::kEnabled ? "true" : "false", indent,
                 std::thread::hardware_concurrency());
}
#endif

/** Environment-variable integer override. */
inline int
intFromEnv(const char *name, int def, int min_value = 1)
{
    if (const char *s = std::getenv(name)) {
        const int v = std::atoi(s);
        return v < min_value ? min_value : v;
    }
    return def;
}

/** Environment-variable override for workload scale. */
inline int
scaleFromEnv(const char *name, int def)
{
    return intFromEnv(name, def, 10);
}

} // namespace cubicleos::bench

#endif // CUBICLEOS_BENCH_BENCH_UTIL_H_
