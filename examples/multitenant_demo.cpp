/**
 * @file
 * Multi-tenant demo: 64 logical cubicles on 16 physical MPK tags.
 *
 * Boots the virtual-protection-key deployment (DESIGN.md §14): the
 * networked library OS plus one cubicle group per tenant — an NGINX
 * instance serving a private RAMFS subtree and a request-log cubicle.
 * With 26 tenants that is 64 logical cubicles, four times the 16 tags
 * the MPK hardware has; the monitor multiplexes them onto
 * a dynamic pool of physical tags, parking idle tenants under a
 * reserved tag and faulting them back in on their next request.
 *
 * Usage: ./multitenant_demo [tenants]   (default 26 → 64 cubicles)
 *
 * Tip: CUBICLEOS_TRACE=evictions prints every park/fault-back-in
 * transition as it happens (CUBICLEOS_TRACE=all adds faults and
 * lifecycle events).
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/httpd/harness.h"

using namespace cubicleos;

int
main(int argc, char **argv)
{
    const int tenants = argc > 1 ? std::atoi(argv[1]) : 26;
    if (tenants < 1 || tenants > 58) {
        std::fprintf(stderr, "tenants must be in [1, 58]\n");
        return 1;
    }

    std::printf("booting %d tenant groups on the networked stack...\n",
                tenants);
    httpd::HttpHarness h(core::IsolationMode::kFull, 65536,
                         httpd::HttpHarness::kRequestBaseCycles,
                         /*sendfile=*/false, tenants);
    auto &sys = h.sys();
    std::printf("%zu logical cubicles on %d physical MPK tags "
                "(dynamic pool: 4, 1 parked tag)\n\n",
                sys.cubicleCount(), hw::kNumPhysPkeys);

    // Cold round: every tenant serves one request. With far more
    // cubicles than tags, most tenants start parked and this round
    // walks the full evict / fault-back-in path.
    std::printf("cold round — one request per tenant:\n");
    for (int t = 0; t < tenants; ++t) {
        h.createFile(t, "/index.html", 2048);
        const auto res = h.fetch(t, "/index.html");
        if (res.status != 200) {
            std::fprintf(stderr, "tenant %d: status %d\n", t,
                         res.status);
            return 1;
        }
    }
    std::printf("  served %d tenants; evictions: %llu, "
                "fault-ins: %llu, tag hit rate: %.1f%%\n\n",
                tenants,
                static_cast<unsigned long long>(sys.stats().evictions()),
                static_cast<unsigned long long>(sys.stats().faultIns()),
                sys.stats().tagHitRatePercent());

    // Steady state: a small working set served in per-tenant batches —
    // the pattern a fronting load balancer produces. Each group stays
    // resident across its burst, so the hit rate recovers.
    sys.stats().reset();
    const int hot = tenants < 6 ? tenants : 6;
    std::printf("steady round — %d-tenant working set, batches of 8:\n",
                hot);
    for (int t = 0; t < hot; ++t) {
        for (int i = 0; i < 8; ++i) {
            if (h.fetch(t, "/index.html").status != 200) {
                std::fprintf(stderr, "tenant %d: batch fetch failed\n",
                             t);
                return 1;
            }
        }
    }
    std::printf("  evictions: %llu, fault-ins: %llu, "
                "tag hit rate: %.1f%%\n\n",
                static_cast<unsigned long long>(sys.stats().evictions()),
                static_cast<unsigned long long>(sys.stats().faultIns()),
                sys.stats().tagHitRatePercent());

    // Per-tenant accounting crossed each tenant's private log cubicle.
    std::printf("per-tenant request logs (isolated log cubicles):\n");
    for (int t = 0; t < hot; ++t) {
        std::printf("  tenant%-3d %6llu requests\n", t,
                    static_cast<unsigned long long>(
                        h.tenantLog(t).totalRequests()));
    }
    return 0;
}
