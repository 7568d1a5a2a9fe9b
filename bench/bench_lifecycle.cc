/**
 * @file
 * Lifecycle benchmark (DESIGN.md §15): what does it cost to kill and
 * hot-restart a cubicle, and does the rest of the deployment notice?
 *
 * Two sections, machine-readably mirrored in BENCH_lifecycle.json at
 * the source root (whatever the working directory):
 *
 *  1. Micro cycles on a toy cubicle with a realistic CFI image:
 *     destroy latency (quiesce + revoke + reclaim) and restart
 *     latency with the verify cache warm (the image re-verifies from
 *     its memoised report) vs cold (cache cleared, full decoder sweep
 *     + CFG walks — what a cold load pays). The acceptance story is
 *     hit ≪ miss: hot-restart rides the cache.
 *
 *  2. The crash lab under service: HTTP req/s through the networked
 *     stack before the database cubicle dies, while it is dead, and
 *     after its hot-restart — the "system keeps serving" number.
 */

#include <cstdio>
#include <string>

#include "baselines/crashlab.h"
#include "bench/bench_util.h"
#include "builder/image.h"
#include "core/verifier/cache.h"
#include "tests/core/toy_components.h"

using namespace cubicleos;

namespace {

struct MicroResult {
    int cycles = 0;
    double destroyMs = 0;      ///< mean destroy latency
    double restartHitMs = 0;   ///< mean restart, verify cache warm
    double restartMissMs = 0;  ///< mean restart, verify cache cleared
    std::size_t reclaimedPages = 0;
};

MicroResult
runMicro(int cycles)
{
    core::SystemConfig cfg;
    cfg.mode = core::IsolationMode::kFull;
    core::System sys(cfg);

    core::testing::addToy(sys, "anchor");
    core::verifier::EntryTable table;
    core::testing::addToy(sys, "victim")
        .withImage(builder::makeCfiImage(262144, 0x11FEC1C5, &table))
        .withIndirectTables({table})
        .onExports([](core::Exporter &exp, auto &) {
            exp.fn<int(int)>("ping", [](int x) { return x + 1; });
        });
    sys.boot();

    auto ping = sys.resolve<int(int)>("victim", "ping");
    const core::Cid anchor = sys.cidOf("anchor");

    MicroResult r;
    r.cycles = cycles;

    // Warm-cache cycles: destroy + restart, image report memoised.
    for (int i = 0; i < cycles; ++i) {
        const auto d = bench::measure(sys.clock(), [&] {
            r.reclaimedPages = sys.destroyComponent("victim");
        });
        const auto rs = bench::measure(
            sys.clock(), [&] { sys.restartComponent("victim"); });
        r.destroyMs += d.totalMs();
        r.restartHitMs += rs.totalMs();
        sys.runAs(anchor, [&] { ping(i); }); // stays functional
    }

    // Cold cycles: clearing the process-wide verify cache forces the
    // full sweep + CFG walks — the cold-load cost a restart avoids.
    for (int i = 0; i < cycles; ++i) {
        sys.destroyComponent("victim");
        core::verifier::VerifyCache::instance().clear();
        const auto rs = bench::measure(
            sys.clock(), [&] { sys.restartComponent("victim"); });
        r.restartMissMs += rs.totalMs();
    }

    r.destroyMs /= cycles;
    r.restartHitMs /= cycles;
    r.restartMissMs /= cycles;
    return r;
}

struct ServiceResult {
    int requestsPerWindow = 0;
    double rpsBaseline = 0;
    double rpsOutage = 0;       ///< minisql dead, stack serving on
    double rpsAfterRestart = 0;
    double destroyMs = 0;
    double restartMs = 0;
    std::size_t reclaimedPages = 0;
};

/** Serves @p n requests and returns requests per modelled+wall second. */
double
measureRps(baselines::CrashLabHarness &h, int n)
{
    double total_ms = 0;
    for (int i = 0; i < n; ++i) {
        const auto res = h.fetch("/site.txt");
        if (res.status != 200)
            std::abort(); // the deployment must keep serving
        total_ms += res.latencyMs();
    }
    return n / (total_ms / 1e3);
}

ServiceResult
runService(int window)
{
    baselines::CrashLabHarness h(core::IsolationMode::kFull);
    h.createFile("/site.txt", 16384);
    h.exec("CREATE TABLE kv (k INT, v INT)");
    h.exec("INSERT INTO kv VALUES (1, 10)");

    ServiceResult r;
    r.requestsPerWindow = window;
    measureRps(h, 4); // warm up connections and windows
    r.rpsBaseline = measureRps(h, window);

    const auto d = bench::measure(h.sys().clock(), [&] {
        r.reclaimedPages = h.killMinisql();
    });
    r.destroyMs = d.totalMs();
    r.rpsOutage = measureRps(h, window);

    const auto rs = bench::measure(h.sys().clock(),
                                   [&] { h.restartMinisql(); });
    r.restartMs = rs.totalMs();
    r.rpsAfterRestart = measureRps(h, window);

    // The restarted database answers queries again (journal-clean).
    if (h.exec("SELECT COUNT(*) FROM kv").scalarInt() != 1)
        std::abort();
    return r;
}

} // namespace

int
main()
{
    bench::header("Cubicle lifecycle: destroy, hot-restart, service dip",
                  "DESIGN.md §15 (crash isolation & hot-restart)");

    const int cycles = bench::intFromEnv("CUBICLEOS_BENCH_CYCLES", 10);
    const int window = bench::intFromEnv("CUBICLEOS_BENCH_WINDOW", 15);

    const MicroResult m = runMicro(cycles);
    std::printf("micro (%d cycles, 64-page CFI image):\n", m.cycles);
    std::printf("  destroy            %8.3f ms  (%zu pages reclaimed)\n",
                m.destroyMs, m.reclaimedPages);
    std::printf("  restart, cache hit %8.3f ms\n", m.restartHitMs);
    std::printf("  restart, cold      %8.3f ms  (%.1fx the hit path)\n",
                m.restartMissMs,
                m.restartHitMs > 0 ? m.restartMissMs / m.restartHitMs
                                   : 0.0);
    bench::rule();

    const ServiceResult s = runService(window);
    std::printf("crash lab (%d requests per window):\n",
                s.requestsPerWindow);
    std::printf("  req/s baseline       %10.1f\n", s.rpsBaseline);
    std::printf("  req/s during outage  %10.1f  (minisql dead)\n",
                s.rpsOutage);
    std::printf("  req/s after restart  %10.1f\n", s.rpsAfterRestart);
    std::printf("  destroy %0.3f ms, restart %0.3f ms, %zu pages\n",
                s.destroyMs, s.restartMs, s.reclaimedPages);
    bench::rule();

    const char *path = CUBICLEOS_SOURCE_DIR "/BENCH_lifecycle.json";
    FILE *json = std::fopen(path, "w");
    if (!json) {
        std::perror(path);
        return 1;
    }
    std::fprintf(
        json,
        "{\n"
        "  \"micro\": {\n"
        "    \"cycles\": %d,\n"
        "    \"destroy_ms\": %.4f,\n"
        "    \"restart_hit_ms\": %.4f,\n"
        "    \"restart_miss_ms\": %.4f,\n"
        "    \"reclaimed_pages\": %zu\n"
        "  },\n"
        "  \"service\": {\n"
        "    \"window_requests\": %d,\n"
        "    \"rps_baseline\": %.2f,\n"
        "    \"rps_during_outage\": %.2f,\n"
        "    \"rps_after_restart\": %.2f,\n"
        "    \"destroy_ms\": %.4f,\n"
        "    \"restart_ms\": %.4f,\n"
        "    \"reclaimed_pages\": %zu\n"
        "  }\n"
        "}\n",
        m.cycles, m.destroyMs, m.restartHitMs, m.restartMissMs,
        m.reclaimedPages, s.requestsPerWindow, s.rpsBaseline,
        s.rpsOutage, s.rpsAfterRestart, s.destroyMs, s.restartMs,
        s.reclaimedPages);
    std::fclose(json);
    std::printf("wrote %s\n", path);

    // Acceptance gate: hot-restart must ride the verify cache — the
    // cold path re-decodes a 256 KiB image and must be visibly slower.
    if (m.restartMissMs <= m.restartHitMs) {
        std::fprintf(stderr,
                     "FAIL: cold restart (%.4f ms) not slower than "
                     "cache-hit restart (%.4f ms)\n",
                     m.restartMissMs, m.restartHitMs);
        return 1;
    }
    return 0;
}
