/**
 * @file
 * Load-time verification throughput: the conservative byte-grep, the
 * instruction-aware linear-sweep verifier (pass 1), and the loader's
 * full verdict, the reachability walk from every function entry with
 * jump-table/lea-call/entry-table resolution of indirect flow
 * (verifyImageInter), over synthesized component images from 64 KiB
 * to 16 MiB.
 *
 * The sweep runs the grep *and* a full linear-sweep disassembly; the
 * walk re-decodes the reachable subset and resolves indirect flow on
 * top of that. Their throughputs bound how much load-time latency
 * each adds on top of the original scan. All are one-shot load-time
 * costs, not steady-state costs.
 *
 * The benign generator plants indirect sites on purpose (bounded
 * switches, lea/call singletons, and a fraction of naked register
 * calls): the "unres" / "rate" columns report how much indirect flow
 * pass 3 fails to resolve. The rate is a hard gate — above 20% the
 * benchmark fails, because at that point the auditor is rubber-
 * stamping opacity. Set CODESCAN_LIST_UNRESOLVED=1 to dump every
 * unresolved site (offset and kind); the per-deployment audit JSON
 * (audit::auditJson) always lists them all.
 */

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "builder/image.h"
#include "core/codescan.h"
#include "core/verifier/ipcfg.h"
#include "core/verifier/scanner.h"

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
    bench::header("Load-time code verification throughput",
                  "loader rule 2 (paper §5.4) — grep vs sweep vs "
                  "interprocedural walk");

    const int reps = bench::intFromEnv("CODESCAN_REPS", 8);
    const bool listUnresolved =
        std::getenv("CODESCAN_LIST_UNRESOLVED") != nullptr;
    const std::size_t sizes[] = {64u << 10, 256u << 10, 1u << 20,
                                 4u << 20, 16u << 20};

    std::printf("%10s %6s %11s %11s %11s %8s %8s %6s\n", "image",
                "reps", "grep MB/s", "verify MB/s", "inter MB/s",
                "indirect", "unres", "rate%");
    bench::rule();

    hw::CycleClock clock; // unused by any scanner; wall time only
    bool rateOk = true;
    for (const std::size_t size : sizes) {
        std::vector<std::size_t> entries;
        const auto image =
            builder::makeBenignImage(size, /*seed=*/size, &entries);

        // Warm-up + correctness guard: benign images must pass all.
        if (core::scanCodeImage(image).has_value() ||
            !core::verifier::verifyImage(image).accepted() ||
            !core::verifier::verifyImageInter(image, entries, {})
                 .accepted()) {
            std::printf("BUG: benign image flagged at size %zu\n", size);
            return 1;
        }

        auto grep = bench::measure(clock, [&] {
            for (int r = 0; r < reps; ++r) {
                if (core::scanCodeImage(image).has_value())
                    return;
            }
        });

        auto verify = bench::measure(clock, [&] {
            for (int r = 0; r < reps; ++r)
                (void)core::verifier::verifyImage(image).insnCount;
        });

        core::verifier::VerifierReport interReport;
        auto inter = bench::measure(clock, [&] {
            for (int r = 0; r < reps; ++r)
                interReport =
                    core::verifier::verifyImageInter(image, entries, {});
        });

        const std::size_t resolved = interReport.audit.resolvedSites;
        const std::size_t unresolved = interReport.audit.unresolvedSites;
        const double rate = interReport.audit.unresolvedRate();
        if (rate >= 0.20)
            rateOk = false;

        const std::size_t total = size * static_cast<std::size_t>(reps);
        std::printf(
            "%8zuK %6d %11.1f %11.1f %11.1f %8zu %8zu %6.2f\n",
            size >> 10, reps, mbPerSec(total, grep.wallMs),
            mbPerSec(total, verify.wallMs), mbPerSec(total, inter.wallMs),
            resolved + unresolved, unresolved, 100.0 * rate);

        if (listUnresolved) {
            for (const core::verifier::IndirectSiteRecord &site :
                 interReport.audit.indirectSites) {
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
    std::printf("verify = grep + instruction-length decode of every "
                "byte; inter = verify + reachability\nwalk from every "
                "function entry with jump-table/lea-call resolution "
                "(all one-shot,\nat load). unres counts residual "
                "CFI-trusted indirect calls.\n");
    if (!rateOk) {
        std::printf("BUG: unresolved-indirect rate reached 20%% — "
                    "pass 3 lost its resolution power\n");
        return 1;
    }
    return 0;
}
