/**
 * @file
 * Tag-pressure smoke test: a 64-cubicle multi-tenant web deployment
 * must boot and serve correctly on 16 physical MPK tags.
 *
 * 12 infrastructure cubicles plus 26 tenant groups (an NGINX instance
 * and a request-log cubicle each) put 64 logical cubicles behind the
 * monitor's dynamic tag pool (DESIGN.md §14). The test serves every
 * tenant once cold (forcing parked tenants through the full
 * evict/fault-back-in path), then re-serves a working set in
 * per-tenant batches and hard-fails if the steady-state physical-tag
 * hit rate drops below the committed floor, or if the cold pass's
 * residency walks read more page-table entries per eviction or
 * fault-in than the committed ceiling. Deterministic (virtual clock +
 * counters), so it runs as an ordinary tier-1 ctest.
 */

#include <cstdio>
#include <string>

#include "apps/httpd/harness.h"

using namespace cubicleos;

namespace {

constexpr int kTenants = 26; // 12 + 2*26 = 64 cubicles
constexpr std::size_t kFileSize = 4096;

/**
 * Committed floor for the steady-state physical-tag hit rate under
 * per-tenant request batching (acceptance gate: >= 90% at 64
 * cubicles). Batching keeps each tenant's group resident across its
 * burst, so misses only happen on the first request of a batch.
 */
constexpr double kHitRateFloor = 90.0;

/**
 * Committed ceiling on the page-table entries the residency walks
 * (eviction and fault-in) examine per transition in the cold pass.
 * They visit only the 64-page groups whose key summary flags the tag
 * they look for; a walk over the whole 65,536-page space reads 65,536.
 */
constexpr uint64_t kScanPagesPerTransition = 2048;

} // namespace

int
main()
{
    httpd::HttpHarness h(core::IsolationMode::kFull, 65536,
                         httpd::HttpHarness::kRequestBaseCycles,
                         /*sendfile=*/false, kTenants);

    const std::size_t cubicles = h.sys().cubicleCount();
    if (cubicles < 64) {
        std::fprintf(stderr,
                     "tag_pressure_smoke: only %zu cubicles booted, "
                     "need >= 64\n",
                     cubicles);
        return 1;
    }

    // Cold pass: every tenant serves once. Most tenants are parked at
    // this point, so each request exercises eviction + fault-back-in.
    // File contents are deterministic per path, so each tenant's body
    // from the cold pass is the reference for the pressured re-serve.
    std::string want[kTenants];
    for (int t = 0; t < kTenants; ++t) {
        h.createFile(t, "/index.html", kFileSize);
        const auto res = h.fetch(t, "/index.html");
        if (res.status != 200 || res.bodyBytes != kFileSize) {
            std::fprintf(stderr,
                         "tag_pressure_smoke: tenant %d cold fetch "
                         "failed (status %d, %zu bytes)\n",
                         t, res.status, res.bodyBytes);
            return 1;
        }
        want[t] = res.body;
    }

    auto &st = h.sys().stats();
    const uint64_t cold_evictions = st.evictions();
    const uint64_t cold_fault_ins = st.faultIns();
    if (cold_evictions == 0) {
        std::fprintf(stderr,
                     "tag_pressure_smoke: 64 cubicles on 16 tags took "
                     "no evictions — virtualisation is not engaged\n");
        return 1;
    }
    const uint64_t transitions = cold_evictions + cold_fault_ins;
    const uint64_t cold_scan = st.residencyScanPages();
    const uint64_t scan_per_transition = cold_scan / transitions;
    if (scan_per_transition > kScanPagesPerTransition) {
        std::fprintf(stderr,
                     "tag_pressure_smoke: residency walks read %llu "
                     "page-table entries over %llu evictions and "
                     "fault-ins (%llu each), ceiling is %llu.\nThey "
                     "should visit only the groups the key summary "
                     "flags (hw::AddressSpace::forEachKeyRun).\n",
                     static_cast<unsigned long long>(cold_scan),
                     static_cast<unsigned long long>(transitions),
                     static_cast<unsigned long long>(scan_per_transition),
                     static_cast<unsigned long long>(
                         kScanPagesPerTransition));
        return 1;
    }

    // Steady-state pass: per-tenant batches over a 6-tenant working
    // set. Reset the counters so the rate reflects serving, not boot.
    h.sys().stats().reset();
    for (int t = 0; t < 6; ++t) {
        for (int i = 0; i < 8; ++i) {
            const auto res = h.fetch(t, "/index.html");
            if (res.status != 200 || res.bodyBytes != kFileSize) {
                std::fprintf(stderr,
                             "tag_pressure_smoke: tenant %d batch "
                             "fetch failed (status %d)\n",
                             t, res.status);
                return 1;
            }
            if (res.body != want[t]) {
                std::fprintf(stderr,
                             "tag_pressure_smoke: tenant %d served "
                             "wrong bytes under tag pressure\n",
                             t);
                return 1;
            }
        }
    }

    const double hit_rate = st.tagHitRatePercent();
    if (hit_rate < kHitRateFloor) {
        std::fprintf(stderr,
                     "tag_pressure_smoke: steady-state tag hit rate "
                     "%.1f%%, floor is %.1f%%.\nPer-tenant batching "
                     "should keep each group resident across its "
                     "burst: check the LRU stamp (Monitor::noteSwitch) "
                     "and the dynamic pool size.\n",
                     hit_rate, kHitRateFloor);
        return 1;
    }

    // Request accounting crossed every tenant's log cubicle.
    for (int t = 0; t < 6; ++t) {
        if (h.tenantLog(t).totalRequests() == 0) {
            std::fprintf(stderr,
                         "tag_pressure_smoke: tenant %d log cubicle "
                         "recorded no requests\n",
                         t);
            return 1;
        }
    }

    std::printf("tag_pressure_smoke: %zu cubicles on %d physical tags; "
                "%llu evictions / %llu fault-ins during cold serve "
                "walked %llu page-table entries, %llu each (ceiling "
                "%llu); steady-state tag hit rate %.1f%% (floor "
                "%.1f%%)\n",
                cubicles, hw::kNumPhysPkeys,
                static_cast<unsigned long long>(cold_evictions),
                static_cast<unsigned long long>(cold_fault_ins),
                static_cast<unsigned long long>(cold_scan),
                static_cast<unsigned long long>(scan_per_transition),
                static_cast<unsigned long long>(kScanPagesPerTransition),
                hit_rate, kHitRateFloor);
    return 0;
}
