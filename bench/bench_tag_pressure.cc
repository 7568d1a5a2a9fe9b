/**
 * @file
 * Tag-virtualisation benchmark (DESIGN.md §14): what does it cost to
 * run more logical cubicles than the 16 MPK keys the hardware has?
 *
 * Two sections, machine-readably mirrored in BENCH_tag_pressure.json
 * at the source root, whatever the working directory:
 *
 *  1. Micro sweep, 8 -> 128 logical cubicles on toy components:
 *     per-eviction cost and fault-back-in latency (modelled cycles),
 *     plus the physical-tag hit rate under the two canonical access
 *     patterns — adversarial round-robin (every switch touches a
 *     different parked cubicle) and per-cubicle batching (each
 *     cubicle serves a burst before the next one runs). Next to the
 *     modelled cycles, the median wall-clock µs of one fault-in and
 *     one eviction, timed around Monitor::ensureResident on fresh
 *     systems (kTimingReps of them): a bind with the pool full is an
 *     eviction plus a fault-in, a bind onto the tag a destroyed
 *     worker freed is a fault-in alone, and the eviction is their
 *     difference of medians.
 *
 *  2. The 64-cubicle multi-tenant web deployment (26 tenant groups on
 *     the Fig. 5 networked stack) serving a working set in per-tenant
 *     batches: the acceptance gate is a >= 90% steady-state hit rate.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/httpd/harness.h"
#include "bench/bench_util.h"
#include "tests/core/toy_components.h"

using namespace cubicleos;

namespace {

/** Fresh systems per sweep point for the wall-clock transition times. */
constexpr int kTimingReps = 5;

struct MicroResult {
    int cubicles = 0;
    uint64_t evictions = 0;
    uint64_t faultIns = 0;
    double cyclesPerEviction = 0;  ///< full evict sweep, amortised
    double faultInCycles = 0;      ///< one parked->resident transition
    double evictWallUs = 0;        ///< median, 0 without evictions
    double faultInWallUs = 0;      ///< median, 0 without fault-ins
    double roundRobinHitPct = 0;
    double batchedHitPct = 0;
};

core::SystemConfig
microConfig()
{
    core::SystemConfig cfg;
    cfg.numPages = 32768;
    cfg.stackPages = 2;
    cfg.virtualizeTags = true;
    return cfg;
}

/**
 * Boots @p n toy workers w0..w{n-1}. Worker 0 doubles as the driver
 * (it runs constantly, so it stays resident); workers 1..n-1 are the
 * parked population under test. That keeps the whole sweep inside the
 * 128-cid ACL width even at the top of the range.
 */
void
bootWorkers(core::System &sys, int n)
{
    for (int i = 0; i < n; ++i) {
        core::testing::addToy(sys, core::testing::numbered("w", i))
            .onExports([](core::Exporter &exp,
                          core::testing::ToyComponent &) {
                exp.fn<int(int)>("ping", [](int x) { return x + 1; });
            });
    }
    sys.boot();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/** Wall-clock µs of one Monitor::ensureResident(@p cid). */
double
timeBind(core::Monitor &mon, core::Cid cid)
{
    const auto t0 = std::chrono::steady_clock::now();
    mon.ensureResident(cid);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/**
 * Median wall-clock µs of one fault-in and of one eviction with @p n
 * workers. Boot leaves the dynamic pool full, so three rounds over the
 * parked workers time evictions plus fault-ins; then each destroy of
 * a resident worker frees a tag for one fault-in alone.
 */
void
timeTransitions(int n, MicroResult &r)
{
    std::vector<double> fault_in, miss;
    for (int rep = 0; rep < kTimingReps; ++rep) {
        core::System sys(microConfig());
        bootWorkers(sys, n);
        core::Monitor &mon = sys.monitor();
        const int parked = mon.parkedKey();
        std::vector<core::Cid> dynamic;
        for (core::Cid cid = 0; cid < mon.cubicleCount(); ++cid) {
            if (mon.cubicle(cid).dynamicTag())
                dynamic.push_back(cid);
        }
        if (dynamic.size() <= mon.config().dynamicTags)
            return; // everyone fits: no eviction to time
        for (int round = 0; round < 3; ++round) {
            for (const core::Cid cid : dynamic) {
                if (mon.cubicle(cid).pkey == parked)
                    miss.push_back(timeBind(mon, cid));
            }
        }
        for (std::size_t i = 0; i < mon.config().dynamicTags; ++i) {
            auto resident = std::find_if(
                dynamic.begin(), dynamic.end(), [&](core::Cid c) {
                    return mon.cubicleAlive(c) &&
                           mon.cubicle(c).pkey != parked;
                });
            auto waiting = std::find_if(
                dynamic.begin(), dynamic.end(), [&](core::Cid c) {
                    return mon.cubicleAlive(c) &&
                           mon.cubicle(c).pkey == parked;
                });
            if (resident == dynamic.end() || waiting == dynamic.end())
                break;
            mon.destroyCubicle(*resident);
            fault_in.push_back(timeBind(mon, *waiting));
        }
    }
    r.faultInWallUs = median(fault_in);
    r.evictWallUs = std::max(0.0, median(miss) - r.faultInWallUs);
}

/** Boots @p n toy cubicles plus a hot driver and measures the sweep. */
MicroResult
runMicro(int n)
{
    core::System sys(microConfig());
    bootWorkers(sys, n);

    std::vector<core::CrossFn<int(int)>> ping;
    for (int i = 1; i < n; ++i) {
        ping.push_back(
            sys.resolve<int(int)>(core::testing::numbered("w", i), "ping"));
    }
    const core::Cid driver = sys.cidOf("w0");

    MicroResult r;
    r.cubicles = n;

    // Adversarial round-robin: with more cubicles than dynamic tags,
    // LRU makes every switch a miss — the worst case for the table.
    sys.stats().reset();
    const uint64_t cyc0 = sys.clock().read();
    sys.runAs(driver, [&] {
        for (int round = 0; round < 10; ++round) {
            for (auto &p : ping)
                p(round);
        }
    });
    const uint64_t cyc1 = sys.clock().read();
    r.evictions = sys.stats().evictions();
    r.faultIns = sys.stats().faultIns();
    r.roundRobinHitPct = sys.stats().tagHitRatePercent();
    if (r.evictions > 0) {
        r.cyclesPerEviction =
            static_cast<double>(cyc1 - cyc0) /
            static_cast<double>(r.evictions);
    }

    // Fault-back-in latency: after the round-robin, the
    // least-recently-used workers are parked; time one cross-call
    // into the coldest one (includes evicting today's LRU victim).
    for (int i = 1; i < n; ++i) {
        if (sys.monitor().cubicle(sys.cidOf(core::testing::numbered("w", i)))
                .pkey != sys.monitor().parkedKey())
            continue;
        const uint64_t f0 = sys.clock().read();
        sys.runAs(driver, [&] { ping[i - 1](1); });
        r.faultInCycles = static_cast<double>(sys.clock().read() - f0);
        break;
    }

    // Per-cubicle batching: each cubicle serves a burst of 16 calls
    // before the next one runs — the steady-state serving pattern.
    sys.stats().reset();
    sys.runAs(driver, [&] {
        for (auto &p : ping) {
            for (int k = 0; k < 16; ++k)
                p(k);
        }
    });
    r.batchedHitPct = sys.stats().tagHitRatePercent();
    timeTransitions(n, r);
    return r;
}

struct ServeResult {
    std::size_t cubicles = 0;
    uint64_t coldEvictions = 0;
    uint64_t coldFaultIns = 0;
    uint64_t coldFaultInPages = 0;
    double steadyHitPct = 0;
    double coldMs = 0;
    double steadyMs = 0;
};

/** The 64-cubicle acceptance workload (and a 128-cubicle stretch). */
ServeResult
runServe(int tenants)
{
    httpd::HttpHarness h(core::IsolationMode::kFull, 65536,
                         httpd::HttpHarness::kRequestBaseCycles,
                         /*sendfile=*/false, tenants);
    ServeResult r;
    r.cubicles = h.sys().cubicleCount();

    const auto cold = bench::measure(h.sys().clock(), [&] {
        for (int t = 0; t < tenants; ++t) {
            h.createFile(t, "/index.html", 4096);
            h.fetch(t, "/index.html");
        }
    });
    r.coldMs = cold.totalMs();
    r.coldEvictions = h.sys().stats().evictions();
    r.coldFaultIns = h.sys().stats().faultIns();
    r.coldFaultInPages = h.sys().stats().faultInPages();

    // Steady state: a 6-tenant working set served in batches of 8.
    h.sys().stats().reset();
    const auto steady = bench::measure(h.sys().clock(), [&] {
        for (int t = 0; t < 6 && t < tenants; ++t) {
            for (int i = 0; i < 8; ++i)
                h.fetch(t, "/index.html");
        }
    });
    r.steadyMs = steady.totalMs();
    r.steadyHitPct = h.sys().stats().tagHitRatePercent();
    return r;
}

} // namespace

int
main()
{
    bench::header("bench_tag_pressure: virtual protection keys — "
                  "logical cubicles on 16 MPK tags",
                  "Sartakov et al., ASPLOS'21, §8 (tag "
                  "virtualisation); DESIGN.md §14");

    std::printf("%9s %10s %10s %13s %9s %12s %10s %9s %9s\n",
                "cubicles", "evictions", "fault-ins", "cyc/eviction",
                "evict us", "faultin cyc", "faultin us", "rrobin%",
                "batched%");
    std::vector<MicroResult> micro;
    for (int n : {8, 16, 32, 64, 128}) {
        MicroResult r = runMicro(n);
        std::printf("%9d %10llu %10llu %13.0f %9.2f %12.0f %10.2f "
                    "%8.1f%% %8.1f%%\n",
                    r.cubicles,
                    static_cast<unsigned long long>(r.evictions),
                    static_cast<unsigned long long>(r.faultIns),
                    r.cyclesPerEviction, r.evictWallUs, r.faultInCycles,
                    r.faultInWallUs, r.roundRobinHitPct,
                    r.batchedHitPct);
        micro.push_back(r);
    }

    bench::rule('-', 78);
    std::printf("multi-tenant web serving (per-tenant request "
                "batches)\n");
    std::printf("%9s %10s %10s %12s %10s %10s\n", "cubicles",
                "evictions", "fault-ins", "faultin pgs", "steady%",
                "steady ms");
    std::vector<ServeResult> serve;
    for (int tenants : {26, 58}) { // 64 and 128 cubicles
        ServeResult r = runServe(tenants);
        std::printf("%9zu %10llu %10llu %12llu %9.1f%% %10.1f\n",
                    r.cubicles,
                    static_cast<unsigned long long>(r.coldEvictions),
                    static_cast<unsigned long long>(r.coldFaultIns),
                    static_cast<unsigned long long>(r.coldFaultInPages),
                    r.steadyHitPct, r.steadyMs);
        serve.push_back(r);
    }

    const char *path = CUBICLEOS_SOURCE_DIR "/BENCH_tag_pressure.json";
    FILE *json = std::fopen(path, "w");
    if (!json) {
        std::perror(path);
        return 1;
    }
    // One run with its provenance; a before/after comparison keeps two
    // such runs side by side in the "runs" list.
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"tag_pressure\",\n"
                 "  \"runs\": [{\n");
    bench::writeProvenance(json, "    ");
    std::fprintf(json,
                 "    \"timing_reps\": %d,\n"
                 "    \"physical_tags\": %d,\n"
                 "    \"dynamic_pool\": 4,\n"
                 "    \"micro_sweep\": [\n",
                 kTimingReps, hw::kNumPhysPkeys);
    for (std::size_t i = 0; i < micro.size(); ++i) {
        const MicroResult &r = micro[i];
        std::fprintf(
            json,
            "      {\"logical_cubicles\": %d, \"evictions\": %llu, "
            "\"fault_ins\": %llu, \"cycles_per_eviction\": %.0f, "
            "\"evict_wall_us\": %.3f, "
            "\"fault_in_latency_cycles\": %.0f, "
            "\"fault_in_wall_us\": %.3f, "
            "\"round_robin_hit_pct\": %.2f, "
            "\"batched_hit_pct\": %.2f}%s\n",
            r.cubicles, static_cast<unsigned long long>(r.evictions),
            static_cast<unsigned long long>(r.faultIns),
            r.cyclesPerEviction, r.evictWallUs, r.faultInCycles,
            r.faultInWallUs, r.roundRobinHitPct, r.batchedHitPct,
            i + 1 < micro.size() ? "," : "");
    }
    std::fprintf(json, "    ],\n    \"multi_tenant_serving\": [\n");
    for (std::size_t i = 0; i < serve.size(); ++i) {
        const ServeResult &r = serve[i];
        std::fprintf(
            json,
            "      {\"cubicles\": %zu, \"cold_evictions\": %llu, "
            "\"cold_fault_ins\": %llu, \"cold_fault_in_pages\": %llu, "
            "\"cold_ms\": %.2f, \"steady_state_hit_pct\": %.2f, "
            "\"steady_ms\": %.2f}%s\n",
            r.cubicles,
            static_cast<unsigned long long>(r.coldEvictions),
            static_cast<unsigned long long>(r.coldFaultIns),
            static_cast<unsigned long long>(r.coldFaultInPages),
            r.coldMs, r.steadyHitPct, r.steadyMs,
            i + 1 < serve.size() ? "," : "");
    }
    std::fprintf(json, "    ]\n  }]\n}\n");
    std::fclose(json);
    std::printf("\nwrote %s\n", path);

    // Acceptance gate mirrored here (the tier-1 ctest enforces it):
    // >= 90%% steady-state hit rate at 64 cubicles.
    if (serve[0].steadyHitPct < 90.0) {
        std::fprintf(stderr,
                     "bench_tag_pressure: steady-state hit rate %.1f%% "
                     "at %zu cubicles is below the 90%% target\n",
                     serve[0].steadyHitPct, serve[0].cubicles);
        return 1;
    }
    return 0;
}
