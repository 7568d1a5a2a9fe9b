/**
 * @file
 * Runtime statistics: cross-cubicle call edges, traps, retags.
 *
 * The per-edge call counters regenerate the annotations on the component
 * graphs of Fig. 5 (NGINX) and Fig. 8 (SQLite). Every other counter is
 * one row of CUBICLEOS_STATS: the Stat enum, the counter array, the
 * named getters and reset() all derive from that one list.
 *
 * Thread-safety: every counter is a relaxed atomic. Cross-calls and
 * trap-and-map faults bump counters concurrently from any thread, so
 * the counters must not serialise the hot paths: the table has one
 * slot per live thread (hw/shards.h), written by that thread alone,
 * and a getter sums the slots, like per-CPU event counters. An
 * increment is a relaxed load and store, with no lock and no locked
 * instruction. Readers (benches, tests) see values at least as fresh
 * as the last synchronisation point (thread join, lock release). The
 * call-edge matrix is the exception: one shared copy, bumped with a
 * relaxed fetch-add.
 */

#ifndef CUBICLEOS_CORE_STATS_H_
#define CUBICLEOS_CORE_STATS_H_

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ids.h"
#include "hw/relaxed_atomic.h"
#include "hw/shards.h"

/**
 * The counter table, in array order. C(name) is one counter, read as
 * Stats::name() and bumped with add(Stat::name[, n]). P(helper, events,
 * amount) is two counters that always move together: Stats::helper(n)
 * adds one to events and n to amount. R(helper, hits, misses) is a hit
 * and a miss counter: Stats::helper() is the hit rate in percent, 100
 * before the first event. retags/retagPages is the amortisation
 * range-granular retagging buys: 1 page per pkey_mprotect call when
 * per-page, up to 512 for a 2 MiB chunk. ringFlushes and ringCalls
 * have no writer and always read 0; they remain only because
 * perfbench reads both getters, until a change to perfbench drops them.
 */
#define CUBICLEOS_STATS(C, P, R)                                          \
    C(traps)                            /* trap-and-map entries */        \
    P(countRetag, retags, retagPages)   /* pkey_mprotect calls, pages */  \
    P(countPrestage, prestages, prestagePages) /* eager retags */         \
    P(countHandBack, handBacks, handBackPages) /* owner's eager reclaim */ \
    C(ringFlushes) C(ringCalls)         /* no writer, see above */        \
    C(wrpkrus)                          /* PKRU register writes */        \
    C(windowOps)                        /* window API calls */            \
    C(violations)                       /* unresolvable faults */         \
    C(grantCacheHits)                   /* faults the TLB absorbed */     \
    R(tagHitRatePercent, tagHits, tagMisses) /* callee bound/parked */   \
    C(evictions)                        /* LRU tag evictions */           \
    P(countFaultIn, faultIns, faultInPages)    /* parked, re-bound */     \
    C(residencyScanPages)  /* PTEs the evict/fault-in key walks read */   \
    P(countDestroy, destroys, reclaimedPages)  /* pages freed */          \
    C(scrubbedPages)              /* freed pages zeroed for the next owner */ \
    C(restarts)                         /* relaunches after destroy */    \
    C(unwoundCalls)                     /* PeerFault verdicts */          \
    C(verifierBytesScanned)             /* bytes of each verified image */ \
    C(verifyCacheHits) C(verifyCacheMisses)   /* one per verified load */ \
    P(countDataCopy, dataCopies, dataCopyBytes) /* payload memcpys */     \
    C(zeroCopySends) C(zeroCopyBytes)   /* segments from borrowed spans */

namespace cubicleos::core {

#define CUBICLEOS_STAT_ONE(name) name,
#define CUBICLEOS_STAT_TWO(helper, events, amount) events, amount,
/** One counter of the table; kCount is the table size. */
enum class Stat : std::size_t {
    CUBICLEOS_STATS(CUBICLEOS_STAT_ONE, CUBICLEOS_STAT_TWO,
                    CUBICLEOS_STAT_TWO) kCount
};
#undef CUBICLEOS_STAT_ONE
#undef CUBICLEOS_STAT_TWO

/** One (caller → callee) edge with its call count. */
struct CallEdge {
    Cid caller;
    Cid callee;
    uint64_t count;
};

/** Aggregated runtime counters for one System. */
class Stats {
  public:
    Stats() : edgeMatrix_(kMaxCubicles * kMaxCubicles) {}

    Stats(const Stats &) = delete;
    Stats &operator=(const Stats &) = delete;

    /**
     * Records one cross-cubicle call on the (caller, callee) edge.
     * A flat-matrix increment: cheap enough to keep on in every mode.
     * @throws std::out_of_range when either cubicle ID is outside the
     *         ACL/matrix width (kMaxCubicles) — out-of-range IDs used
     *         to alias silently onto `cid % kMaxCubicles`, corrupting
     *         another cubicle's edge counters.
     */
    void countCall(Cid caller, Cid callee)
    {
        edgeMatrix_[matrixIndex(caller, callee)].fetchAdd(1);
    }

    /** Adds @p n to counter @p s, on the calling thread's slot. */
    void add(Stat s, uint64_t n = 1)
    {
        counters_.local()[static_cast<std::size_t>(s)].addOwned(n);
    }
    /** Current value of counter @p s, summed over the shards. */
    uint64_t get(Stat s) const
    {
        uint64_t n = 0;
        for (std::size_t i = 0; i < hw::kShards; ++i)
            n += counters_[i][static_cast<std::size_t>(s)];
        return n;
    }

#define CUBICLEOS_STAT_GETTER(name)                                       \
    uint64_t name() const { return get(Stat::name); }
#define CUBICLEOS_STAT_PAIR(helper, events, amount)                       \
    void helper(uint64_t n) { add(Stat::events); add(Stat::amount, n); } \
    CUBICLEOS_STAT_GETTER(events) CUBICLEOS_STAT_GETTER(amount)
#define CUBICLEOS_STAT_RATE(helper, hits, misses)                         \
    double helper() const                                                 \
    {                                                                     \
        const double h = hits(), all = h + misses();                      \
        return all == 0 ? 100.0 : 100.0 * h / all;                        \
    }                                                                     \
    CUBICLEOS_STAT_GETTER(hits) CUBICLEOS_STAT_GETTER(misses)
    CUBICLEOS_STATS(CUBICLEOS_STAT_GETTER, CUBICLEOS_STAT_PAIR,
                    CUBICLEOS_STAT_RATE)
#undef CUBICLEOS_STAT_GETTER
#undef CUBICLEOS_STAT_PAIR
#undef CUBICLEOS_STAT_RATE

    /** Returns the call count on one edge. */
    uint64_t callsOnEdge(Cid caller, Cid callee) const
    {
        return edgeMatrix_[matrixIndex(caller, callee)];
    }

    /** Total cross-cubicle calls over all edges. */
    uint64_t totalCalls() const
    {
        uint64_t n = 0;
        for (const auto &v : edgeMatrix_)
            n += v;
        return n;
    }

    /** All edges with non-zero counts. */
    std::vector<CallEdge> edges() const
    {
        std::vector<CallEdge> out;
        for (int c = 0; c < kMaxCubicles; ++c) {
            for (int e = 0; e < kMaxCubicles; ++e) {
                uint64_t v = edgeMatrix_[c * kMaxCubicles + e];
                if (v > 0) {
                    out.push_back(CallEdge{static_cast<Cid>(c),
                                           static_cast<Cid>(e), v});
                }
            }
        }
        return out;
    }

    /** Resets every counter on every shard (benchmark warm-up
     *  boundary). No thread may count meanwhile. */
    void reset()
    {
        for (auto &v : edgeMatrix_)
            v = 0;
        for (std::size_t i = 0; i < hw::kShards; ++i) {
            for (auto &v : counters_[i])
                v = 0;
        }
    }

  private:
    static std::size_t matrixIndex(Cid caller, Cid callee)
    {
        if (caller >= static_cast<Cid>(kMaxCubicles) ||
            callee >= static_cast<Cid>(kMaxCubicles)) {
            throw std::out_of_range(
                "Stats: cubicle id outside the " +
                std::to_string(kMaxCubicles) +
                "-wide call-edge matrix (caller " +
                std::to_string(caller) + ", callee " +
                std::to_string(callee) + ")");
        }
        return static_cast<std::size_t>(caller) * kMaxCubicles + callee;
    }

    using Counter = hw::RelaxedAtomic<uint64_t>;

    /**
     * Not sharded, so bumped with a locked add: callers in different
     * cubicles bump different rows, and kShards copies would add 8 MB
     * per System.
     */
    std::vector<Counter> edgeMatrix_;
    hw::Shards<std::array<Counter, static_cast<std::size_t>(Stat::kCount)>>
        counters_;
};

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_STATS_H_
