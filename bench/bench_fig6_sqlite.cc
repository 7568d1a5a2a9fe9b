/**
 * @file
 * Figure 6: SQLite (speedtest1) query execution times under the four
 * configurations — baseline Unikraft, CubicleOS without MPK,
 * CubicleOS without ACLs, and full CubicleOS — on the 7-isolated-
 * cubicle deployment of Fig. 8.
 *
 * Paper result (§6.4): two query populations. Cache-friendly queries:
 * trampolines +2%, MPK +50%, windows +20%, overall ≈1.8x. OS-heavy
 * queries: up to ≈8x, dominated by MPK trap-and-map. Average 1.7–8x
 * vs the non-isolated baseline.
 *
 * Beside each min-of-R time it prints the traps and pkey_mprotect
 * calls of that run, and each configuration's geometric mean, which
 * should order unikraft <= no-mpk <= no-acl <= cubicleos.
 *
 * Scale via CUBICLE_BENCH_SCALE (default 400 rows).
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "apps/minisql/speedtest.h"
#include "baselines/deployments.h"
#include "bench/bench_util.h"

using namespace cubicleos;
using baselines::SqliteDeployment;
using bench::Measurement;

namespace {

/** One query's run: its time and the protection work it did. */
struct QueryRun {
    Measurement m;
    uint64_t traps = 0;
    uint64_t mprotects = 0;
};

struct ModeRun {
    core::IsolationMode mode;
    const char *label;
    std::map<int, QueryRun> perQuery;
};

} // namespace

int
main()
{
    const int scale = bench::scaleFromEnv("CUBICLE_BENCH_SCALE", 400);
    bench::header("Figure 6: SQLite query execution times (4 configs)",
                  "Sartakov et al., ASPLOS'21, Fig. 6 / Sec. 6.4");
    std::printf("speedtest scale: %d (CUBICLE_BENCH_SCALE)\n\n", scale);

    ModeRun runs[] = {
        {core::IsolationMode::kUnikraft, "Unikraft", {}},
        {core::IsolationMode::kNoMpk, "CubicleOS w/o MPK", {}},
        {core::IsolationMode::kNoAcl, "CubicleOS w/o ACLs", {}},
        {core::IsolationMode::kFull, "CubicleOS", {}},
    };

    // One throwaway pass warms the process (allocator, code paging),
    // then min-of-R per query suppresses host wall-clock noise.
    const int reps = bench::intFromEnv("CUBICLE_BENCH_REPS", 3);
    // SQLite's page cache size determines how often queries reach the
    // OS interface; 64 pages keeps the working set realistic relative
    // to our scaled-down database, as the paper's 2 MB default cache
    // was to its full-size speedtest1 database.
    const std::size_t cache = static_cast<std::size_t>(
        bench::intFromEnv("CUBICLE_BENCH_CACHE", 64, 8));
    for (int rep = -1; rep < reps; ++rep) {
        for (ModeRun &run : runs) {
            auto dep = SqliteDeployment::makeCubicles(7, run.mode, cache);
            minisql::Speedtest bench_suite(&dep->database(), scale);
            core::System &sys = *dep->system();
            for (int id : minisql::Speedtest::queryIds()) {
                QueryRun q;
                const uint64_t traps0 = sys.stats().traps();
                const uint64_t mprotects0 =
                    sys.monitor().space().retagCount();
                dep->enter([&] {
                    q.m = bench::measure(sys.clock(),
                                         [&] { bench_suite.run(id); });
                });
                q.traps = sys.stats().traps() - traps0;
                q.mprotects = sys.monitor().space().retagCount() - mprotects0;
                if (rep < 0)
                    continue; // warm-up pass
                auto it = run.perQuery.find(id);
                if (it == run.perQuery.end() ||
                    q.m.totalMs() < it->second.m.totalMs()) {
                    run.perQuery[id] = q;
                }
            }
        }
    }

    // Per-query table.
    std::printf("%-6s %-38s %10s %10s %10s %10s %8s\n", "query",
                "label", "unikraft", "no-mpk", "no-acl", "cubicleos",
                "slowdn");
    bench::rule('-', 98);
    double geo_sum = 0;
    int geo_n = 0;
    double mode_log_sum[4] = {};
    std::vector<double> slowdowns;
    for (int id : minisql::Speedtest::queryIds()) {
        const double base = runs[0].perQuery[id].m.totalMs();
        const double full = runs[3].perQuery[id].m.totalMs();
        const double slow = base > 0 ? full / base : 0;
        slowdowns.push_back(slow);
        std::printf("%-6d %-38s %9.2fms %9.2fms %9.2fms %9.2fms %7.2fx\n",
                    id, minisql::Speedtest::labelOf(id), base,
                    runs[1].perQuery[id].m.totalMs(),
                    runs[2].perQuery[id].m.totalMs(), full, slow);
        if (base > 0) {
            geo_sum += std::log(slow);
            ++geo_n;
        }
        for (int k = 0; k < 4; ++k)
            mode_log_sum[k] += std::log(runs[k].perQuery[id].m.totalMs());
    }
    bench::rule('-', 98);
    const double n_queries =
        static_cast<double>(minisql::Speedtest::queryIds().size());
    double geo[4];
    for (int k = 0; k < 4; ++k)
        geo[k] = std::exp(mode_log_sum[k] / n_queries);
    std::printf("%-45s %9.3fms %9.3fms %9.3fms %9.3fms\n",
                "geometric mean", geo[0], geo[1], geo[2], geo[3]);
    const bool ordered = geo[0] <= geo[1] && geo[1] <= geo[2] &&
                         geo[2] <= geo[3];
    std::printf("geometric means order unikraft <= no-mpk <= no-acl <= "
                "cubicleos: %s\n",
                ordered ? "yes" : "NO");

    // Protection work of the same min-of-R runs: traps / pkey_mprotect
    // calls per query and configuration.
    std::printf("\n%-6s %-38s %12s %12s %12s %12s\n", "query",
                "traps / pkey_mprotect calls", "unikraft", "no-mpk",
                "no-acl", "cubicleos");
    bench::rule('-', 98);
    for (int id : minisql::Speedtest::queryIds()) {
        std::printf("%-6d %-38s", id, minisql::Speedtest::labelOf(id));
        for (const ModeRun &run : runs) {
            const QueryRun &q = run.perQuery.at(id);
            std::printf(" %5llu/%-6llu",
                        static_cast<unsigned long long>(q.traps),
                        static_cast<unsigned long long>(q.mprotects));
        }
        std::printf("\n");
    }
    bench::rule('-', 98);

    // Population split, as in the paper's discussion.
    double lo_max = 0;
    int lo_n = 0, hi_n = 0;
    double lo_sum = 0, hi_sum = 0;
    for (double s : slowdowns) {
        if (s < 3.0) {
            lo_sum += s;
            ++lo_n;
            lo_max = std::max(lo_max, s);
        } else {
            hi_sum += s;
            ++hi_n;
        }
    }
    std::printf("\nsummary (CubicleOS vs Unikraft):\n");
    std::printf("  geometric-mean slowdown : %.2fx   (paper: 1.7-8x "
                "range)\n",
                std::exp(geo_sum / std::max(1, geo_n)));
    if (lo_n) {
        std::printf("  cache-friendly group    : %d queries, avg "
                    "%.2fx   (paper: ~1.8x)\n",
                    lo_n, lo_sum / lo_n);
    }
    if (hi_n) {
        std::printf("  OS-intensive group      : %d queries, avg "
                    "%.2fx   (paper: ~8x)\n",
                    hi_n, hi_sum / hi_n);
    }
    return 0;
}
