/**
 * @file
 * Perf smoke test: the bulk-transfer hot path must stay trap-cheap.
 *
 * Runs one 2 MB zero-copy sendfile request on the full NGINX
 * deployment and hard-fails if the measured traps/request exceeds the
 * committed ceiling. This is the regression guard for the
 * range-granular retag + prestage machinery: before that work the
 * same request cost ~388 traps; with it, low single-digits. The
 * ceiling is deliberately far above today's number
 * (timing noise never matters — traps are deterministic counters) but
 * far below the per-page-lazy regime, so any change that silently
 * reverts a hot window, a prestage hint, or range-granular retagging
 * trips it.
 *
 * Registered as a tier-1 ctest (label: perf); runtime well under a
 * second.
 */

#include <cstdio>

#include "apps/httpd/harness.h"

using namespace cubicleos;

namespace {

/**
 * Committed ceiling for one steady-state 2 MB sendfile request
 * (64 borrowed 32 KiB spans, each queued by reference into the TCP
 * stack). Paper target (§6.3 discussion): fewer than 100 traps for
 * the whole request; measured today: 2.
 */
constexpr double kTrapCeiling = 100.0;

constexpr std::size_t kFileSize = 2 << 20;

} // namespace

int
main()
{
    httpd::HttpHarness h(core::IsolationMode::kFull,
                         /*num_pages=*/65536,
                         /*request_base_cycles=*/11'000'000,
                         /*sendfile=*/true);
    h.createFile("/smoke", kFileSize);
    h.fetch("/smoke"); // warm-up: faults the working set in

    auto &st = h.sys().stats();
    const uint64_t traps0 = st.traps();
    const uint64_t zc0 = st.zeroCopyBytes();
    const auto res = h.fetch("/smoke");
    const double traps = double(st.traps() - traps0);
    const uint64_t zc = st.zeroCopyBytes() - zc0;

    if (res.status != 200 || res.bodyBytes != kFileSize) {
        std::fprintf(stderr,
                     "perf_smoke: transfer failed (status %d, %zu "
                     "bytes)\n",
                     res.status, res.bodyBytes);
        return 1;
    }
    if (zc != kFileSize) {
        std::fprintf(stderr,
                     "perf_smoke: body not served zero-copy (%llu of "
                     "%zu bytes)\n",
                     static_cast<unsigned long long>(zc), kFileSize);
        return 1;
    }
    if (traps > kTrapCeiling) {
        std::fprintf(stderr,
                     "perf_smoke: %.0f traps/request on the 2 MB "
                     "sendfile, ceiling is %.0f.\n"
                     "The bulk-transfer hot path regressed: check hot "
                     "windows (lwip/netdev frame\nbuffers, ukapi "
                     "transfer arena), prestage hints (ramfs span "
                     "windows, sockapi\nbuffers) and range-granular "
                     "retagging (Monitor::handleFault chunking).\n",
                     traps, kTrapCeiling);
        return 1;
    }
    std::printf("perf_smoke: 2 MB sendfile in %.0f traps/request "
                "(ceiling %.0f), %llu bytes zero-copy\n",
                traps, kTrapCeiling,
                static_cast<unsigned long long>(zc));
    return 0;
}
