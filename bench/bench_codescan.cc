/**
 * @file
 * Code-verification throughput over synthesized component images from
 * 64 KiB to 16 MiB: the conservative byte-grep, which is the loader's
 * whole verdict, and the auditor's reachability walk from every
 * function entry with jump-table/lea-call/entry-table resolution of
 * indirect flow (verifyImageInter), which runs outside the trusted
 * core.
 *
 * The walk runs the grep, decodes the reachable code, resolves
 * indirect flow, labels each grep match, and ends with one linear
 * decode of the whole image for coverage. Both throughputs are
 * one-shot costs per image, not steady-state costs.
 *
 * The benign generator plants indirect sites on purpose (bounded
 * switches, lea/call singletons, and a fraction of naked register
 * calls): the "unres" / "rate" columns report how much indirect flow
 * the walk fails to resolve. The rate is a hard gate — above 20% the
 * benchmark fails, because at that point the auditor is rubber-
 * stamping opacity. Set CODESCAN_LIST_UNRESOLVED=1 to dump every
 * unresolved site (offset and kind); the per-deployment audit JSON
 * (audit::auditJson) always lists them all.
 */

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "audit/ipcfg.h"
#include "bench/bench_util.h"
#include "builder/image.h"
#include "core/codescan.h"

namespace {

using namespace cubicleos;

double
mbPerSec(std::size_t bytes, double ms)
{
    if (ms <= 0.0)
        return 0.0;
    return (static_cast<double>(bytes) / (1024.0 * 1024.0)) / (ms / 1e3);
}

} // namespace

int
main()
{
    bench::header("Code verification throughput",
                  "loader rule 2 (paper §5.4) — the loader's grep vs "
                  "the auditor's interprocedural walk");

    const int reps = bench::intFromEnv("CODESCAN_REPS", 8);
    const bool listUnresolved =
        std::getenv("CODESCAN_LIST_UNRESOLVED") != nullptr;
    const std::size_t sizes[] = {64u << 10, 256u << 10, 1u << 20,
                                 4u << 20, 16u << 20};

    std::printf("%17s %22s %13s\n", "", "grep (loader verdict)",
                "walk (audit)");
    std::printf("%10s %6s %22s %13s %8s %8s %6s\n", "image", "reps",
                "MB/s", "MB/s", "indirect", "unres", "rate%");
    bench::rule();

    hw::CycleClock clock; // unused by any scanner; wall time only
    bool rateOk = true;
    for (const std::size_t size : sizes) {
        std::vector<std::size_t> entries;
        const auto image =
            builder::makeBenignImage(size, /*seed=*/size, &entries);

        // Warm-up + correctness guard: benign images must pass both.
        if (core::scanCodeImage(image).has_value() ||
            !audit::verifyImageInter(image, entries, {}).accepted()) {
            std::printf("BUG: benign image flagged at size %zu\n", size);
            return 1;
        }

        auto grep = bench::measure(clock, [&] {
            for (int r = 0; r < reps; ++r) {
                if (core::scanCodeImage(image).has_value())
                    return;
            }
        });

        audit::VerifierReport walkReport;
        auto walk = bench::measure(clock, [&] {
            for (int r = 0; r < reps; ++r)
                walkReport = audit::verifyImageInter(image, entries, {});
        });

        const std::size_t resolved = walkReport.audit.resolvedSites;
        const std::size_t unresolved = walkReport.audit.unresolvedSites;
        const double rate = walkReport.audit.unresolvedRate();
        if (rate >= 0.20)
            rateOk = false;

        const std::size_t total = size * static_cast<std::size_t>(reps);
        std::printf("%9zuK %6d %22.1f %13.1f %8zu %8zu %6.2f\n",
                    size >> 10, reps, mbPerSec(total, grep.wallMs),
                    mbPerSec(total, walk.wallMs), resolved + unresolved,
                    unresolved, 100.0 * rate);

        if (listUnresolved) {
            for (const audit::IndirectSiteRecord &site :
                 walkReport.audit.indirectSites) {
                if (site.resolved)
                    continue;
                std::printf("    unresolved %s at offset %zu "
                            "(function %zu)\n",
                            site.isJump ? "jmp r/m" : "call r/m",
                            site.offset, site.function);
            }
        }
    }
    bench::rule();
    std::printf("grep = the loader's verdict (any match refuses the "
                "image).\nwalk = the auditor's grep + reachability walk "
                "from every function entry\nwith jump-table/lea-call "
                "resolution + one coverage decode of every byte.\n"
                "unres counts residual CFI-trusted indirect calls.\n");
    if (!rateOk) {
        std::printf("BUG: unresolved-indirect rate reached 20%% — "
                    "the walk lost its resolution power\n");
        return 1;
    }
    return 0;
}
