/**
 * @file
 * Multi-threaded trap-and-map + cross-call throughput.
 *
 * Measures the scalability of the monitor's decomposed lock hierarchy:
 * at 1/2/4/8 threads, each thread runs in its own cubicle, shares its
 * own buffer through its own window with one server cubicle, and loops
 * { cross-call into the server (which faults the buffer in and sums
 * it), reclaim the buffer with a write (owner self-retag fast path) }.
 * Every iteration therefore exercises the fault path twice (window
 * walk under the shared lock + lock-free owner retag) and the
 * cross-call trampoline twice.
 *
 * Under the old design every one of those operations serialised on the
 * monitor's single mutex; now the only shared write point is the
 * atomic tag store, and the per-crossing counters are per-thread
 * shards (DESIGN.md §9). Results go to stdout and, machine-readably,
 * to BENCH_mt_faults.json at the source root, whatever the working
 * directory (see EXPERIMENTS.md), under the provenance stamp every
 * BENCH_*.json carries (bench::writeProvenance).
 *
 * Scale via CUBICLE_BENCH_MT_ITERS (iterations per thread, default
 * 200000).
 */

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/system.h"
#include "libos/grant.h"
#include "tests/core/toy_components.h"

namespace cubicleos {
namespace {

using core::Cid;
using core::Exporter;
using core::System;
using core::SystemConfig;
using core::testing::ToyComponent;
using core::testing::addToy;
using core::testing::numbered;

struct Result {
    int threads = 0;
    int iters = 0;
    bench::Measurement m;
    uint64_t traps = 0;
    uint64_t retags = 0;
    uint64_t grantCacheHits = 0;
    uint64_t crossCalls = 0;
    double opsPerSec() const
    {
        const double secs = m.totalMs() / 1e3;
        return secs > 0 ? threads * iters / secs : 0;
    }
};

Result
run(int threads, int iters)
{
    SystemConfig cfg;
    cfg.numPages = 8192;
    System sys(cfg);
    addToy(sys, "srv").onExports([](Exporter &exp, ToyComponent &me) {
        exp.fn<long(const char *, std::size_t)>(
            "sum", [&me](const char *p, std::size_t n) {
                me.sys()->touch(p, n, hw::Access::kRead);
                long s = 0;
                for (std::size_t i = 0; i < n; ++i)
                    s += p[i];
                return s;
            });
    });
    for (int t = 0; t < threads; ++t)
        addToy(sys, numbered("w", t));
    sys.boot();
    auto sum = sys.resolve<long(const char *, std::size_t)>("srv", "sum");
    const Cid srv = sys.cidOf("srv");

    Result r;
    r.threads = threads;
    r.iters = iters;
    std::atomic<long> bad{0};

    r.m = bench::measure(sys.clock(), [&] {
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] {
                const Cid me = sys.cidOf(numbered("w", t));
                sys.runAs(me, [&] {
                    auto *buf = reinterpret_cast<char *>(
                        sys.monitor()
                            .allocPagesFor(me, 1, mem::PageType::kHeap)
                            .ptr);
                    std::memset(buf, 1, 256);
                    // Share through the grant layer (the wiring lint
                    // forbids raw window calls here).
                    libos::GrantWindow win(sys, libos::PeerSet{srv});
                    win.stage(buf, 256);
                    win.open(win.peers());
                    for (int i = 0; i < iters; ++i) {
                        if (sum(buf, 256) != 256)
                            ++bad;
                        // Reclaim: owner self-retag fast path.
                        sys.touch(buf, 256, hw::Access::kWrite);
                    }
                    win.destroy();
                });
            });
        }
        for (auto &th : pool)
            th.join();
    });
    if (bad != 0)
        std::fprintf(stderr, "BUG: %ld bad sums\n", bad.load());
    // The clock sums every thread's modelled cycles, but the threads
    // run in parallel doing identical work: charge each total/threads,
    // as perfbench's mt-grant does, so the model does not hide speedup.
    r.m.modelMs /= threads;

    r.traps = sys.stats().traps();
    r.retags = sys.stats().retags();
    r.grantCacheHits = sys.stats().grantCacheHits();
    r.crossCalls = sys.stats().totalCalls();
    return r;
}

} // namespace
} // namespace cubicleos

int
main()
{
    using namespace cubicleos;

    const int iters = bench::intFromEnv("CUBICLE_BENCH_MT_ITERS", 200000);
    const unsigned hw_threads = std::thread::hardware_concurrency();

    bench::header("bench_mt_faults: trap-and-map + cross-call "
                  "throughput vs thread count",
                  "lock-decomposition scalability (DESIGN.md "
                  "\"Concurrency model\")");
    std::printf("iterations/thread: %d (CUBICLE_BENCH_MT_ITERS), "
                "host cores: %u\n\n",
                iters, hw_threads);
    std::printf("%8s %10s %12s %12s %10s %10s %12s\n", "threads",
                "wall ms", "model ms", "ops/s", "traps", "retags",
                "cache hits");

    std::vector<Result> results;
    for (int threads : {1, 2, 4, 8}) {
        Result r = run(threads, iters);
        std::printf("%8d %10.2f %12.2f %12.0f %10llu %10llu %12llu\n",
                    r.threads, r.m.wallMs, r.m.modelMs, r.opsPerSec(),
                    static_cast<unsigned long long>(r.traps),
                    static_cast<unsigned long long>(r.retags),
                    static_cast<unsigned long long>(r.grantCacheHits));
        results.push_back(r);
    }

    const char *path = CUBICLEOS_SOURCE_DIR "/BENCH_mt_faults.json";
    FILE *json = std::fopen(path, "w");
    if (!json) {
        std::perror(path);
        return 1;
    }
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"mt_faults\",\n");
    bench::writeProvenance(json, "  ");
    std::fprintf(json, "  \"iters_per_thread\": %d,\n", iters);
    if (hw_threads == 1) {
        std::fprintf(json, "  \"note\": \"1-core host: wall-clock "
                           "columns show serialisation overhead only\",\n");
    }
    std::fprintf(json, "  \"runs\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result &r = results[i];
        std::fprintf(
            json,
            "    {\"threads\": %d, \"wall_ms\": %.3f, "
            "\"model_ms\": %.3f, \"total_ms\": %.3f, "
            "\"ops_per_sec\": %.1f, \"traps\": %llu, "
            "\"retags\": %llu, \"grant_cache_hits\": %llu, "
            "\"cross_calls\": %llu}%s\n",
            r.threads, r.m.wallMs, r.m.modelMs, r.m.totalMs(),
            r.opsPerSec(),
            static_cast<unsigned long long>(r.traps),
            static_cast<unsigned long long>(r.retags),
            static_cast<unsigned long long>(r.grantCacheHits),
            static_cast<unsigned long long>(r.crossCalls),
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote %s\n", path);
    return 0;
}
