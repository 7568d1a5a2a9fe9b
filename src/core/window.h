/**
 * @file
 * Windows: user-managed temporal memory isolation (paper §3, §5.3).
 *
 * A window is a set of memory ranges owned by one cubicle plus an ACL
 * bitmask of the cubicles allowed to access those ranges. Windows are
 * discretionary ACLs consulted lazily by the monitor's trap-and-map
 * handler; opening or closing a window never touches page tables.
 * The ACL is the only record of a grant: only the owner changes it,
 * and a peer's destroy and restart leave it as the owner last set it
 * (DESIGN.md §15).
 *
 * Each cubicle keeps three window-descriptor arrays — for global, stack
 * and heap data — so the trap handler can locate candidate ranges from
 * the faulting page's type in O(1) + an interval lookup. The arrays are
 * kept sorted by range start, so the trap-and-map step ❸ search is a
 * binary search instead of the paper's linear scan — the paper notes
 * all but one cubicle have <10 windows, but a server multiplexing many
 * client buffers through one cubicle does not stay that small.
 */

#ifndef CUBICLEOS_CORE_WINDOW_H_
#define CUBICLEOS_CORE_WINDOW_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "core/errors.h"
#include "core/ids.h"
#include "core/locking.h"
#include "hw/relaxed_atomic.h"
#include "mem/page_meta.h"

namespace cubicleos::core {

/**
 * ACL bitmask over cubicle IDs (bit i = cubicle i may access).
 *
 * A 128-bit two-word value type: kMaxCubicles outgrew a single machine
 * word when tag virtualisation lifted the 16-tag loader ceiling. The
 * struct keeps the uint64_t ergonomics the code was written against —
 * implicit construction from integer literals (`AclMask acl = 0`),
 * bitwise ops, shifts, equality — so call sites read unchanged.
 */
struct AclMask {
    uint64_t lo = 0;
    uint64_t hi = 0;

    constexpr AclMask() = default;
    constexpr AclMask(uint64_t v) : lo(v) {} // NOLINT: implicit by design
    constexpr AclMask(uint64_t l, uint64_t h) : lo(l), hi(h) {}

    constexpr bool operator==(const AclMask &) const = default;
    explicit constexpr operator bool() const { return (lo | hi) != 0; }

    friend constexpr AclMask operator|(AclMask a, AclMask b)
    {
        return AclMask{a.lo | b.lo, a.hi | b.hi};
    }
    friend constexpr AclMask operator&(AclMask a, AclMask b)
    {
        return AclMask{a.lo & b.lo, a.hi & b.hi};
    }
    constexpr AclMask operator~() const { return AclMask{~lo, ~hi}; }
    AclMask &operator|=(AclMask o)
    {
        lo |= o.lo;
        hi |= o.hi;
        return *this;
    }
    AclMask &operator&=(AclMask o)
    {
        lo &= o.lo;
        hi &= o.hi;
        return *this;
    }
    constexpr AclMask operator<<(int n) const
    {
        if (n <= 0)
            return *this;
        if (n >= 128)
            return AclMask{};
        if (n >= 64)
            return AclMask{0, lo << (n - 64)};
        return AclMask{lo << n, (hi << n) | (lo >> (64 - n))};
    }
};

/**
 * An AclMask updated atomically word-by-word (relaxed). Used for the
 * monitor's lock-free usage tracking; OR-only accumulation means
 * per-word atomicity is sufficient — a torn read can only miss a
 * concurrent grant, never invent one.
 */
class AtomicAclMask {
  public:
    AclMask load() const { return AclMask{lo_.load(), hi_.load()}; }
    void fetchOr(AclMask m)
    {
        if (m.lo != 0)
            lo_.fetchOr(m.lo);
        if (m.hi != 0)
            hi_.fetchOr(m.hi);
    }

  private:
    hw::RelaxedAtomic<uint64_t> lo_{0};
    hw::RelaxedAtomic<uint64_t> hi_{0};
};

/**
 * Returns the ACL bit for cubicle @p cid.
 *
 * @throws WindowError when @p cid does not fit the mask. This used to
 *         alias silently (`cid % kMaxCubicles`), which would have let
 *         cubicle 64 share ACL bits — and therefore window access —
 *         with cubicle 0.
 */
constexpr AclMask
aclBit(Cid cid)
{
    if (cid >= static_cast<Cid>(kMaxCubicles)) {
        throw WindowError("cubicle id " + std::to_string(cid) +
                          " outside the " + std::to_string(kMaxCubicles) +
                          "-bit ACL mask");
    }
    return AclMask{1} << cid;
}

/** One memory range associated with a window. */
struct WindowRange {
    const void *ptr = nullptr;
    std::size_t size = 0;
    Wid wid = kInvalidWindow;

    uintptr_t start() const { return reinterpret_cast<uintptr_t>(ptr); }

    bool contains(const void *p) const
    {
        auto a = reinterpret_cast<uintptr_t>(ptr);
        auto q = reinterpret_cast<uintptr_t>(p);
        return q >= a && q < a + size;
    }
};

/**
 * A half-open byte interval [start, end) of merged window ranges.
 * Returned by WindowTable::coverageFor for range-granular retags.
 */
struct RangeSpan {
    uintptr_t start = 0;
    uintptr_t end = 0;

    bool empty() const { return start == end; }
    std::size_t size() const { return end - start; }
};

/** A window descriptor: owner, ACL, and liveness. */
struct Window {
    Cid owner = kNoCubicle;
    AclMask acl = 0;
    bool live = false;
    uint32_t rangeCount = 0;
    /**
     * Dedicated MPK key for a "hot" window (paper §8's proposed
     * window-specific tags), or -1. Pages added to a hot window are
     * eagerly tagged with this key, and every cubicle in the ACL has
     * the key in its PKRU — frequent use costs no trap-and-map.
     */
    int hotKey = -1;
    /**
     * Ranges added over the descriptor's whole lifetime, never
     * decremented by removes. The stale-ACL lint rule uses it to tell
     * "ACL outlived its ranges" (warning) from "ACL never covered a
     * range" (info). Reset when the slot is recycled by windowCreate.
     */
    uint32_t rangesEverAdded = 0;
};

/**
 * The per-cubicle window-descriptor arrays (global / stack / heap).
 *
 * Ranges are stored by the data type of their pages so the trap handler
 * goes straight from page metadata to the right array. Each array is a
 * sorted interval index: ranges are ordered by start address, and a
 * per-array upper bound on range size caps the backwards walk, so
 * lookups are O(log n) for the disjoint ranges produced by the window
 * API (overlapping ranges degrade gracefully toward the old linear
 * scan, bounded by the largest range ever added).
 *
 * Thread-safety: none here — the monitor wraps mutation in its
 * exclusive window lock and lookups in the shared one (monitor.h).
 * The guard relation is not expressible as a GUARDED_BY annotation
 * because the protecting lock (Monitor::windowMutex_, rank kWindow in
 * core/locking.h) lives in a different object than the table it
 * guards; the static analysis instead checks the monitor's accesses to
 * windows_. The gap is closed at runtime instead: the loader binds
 * each table to the window lock (bindGuard), and with lockdep built
 * in every table operation aborts unless the calling thread holds
 * that lock in some mode. Unbound tables (unit tests using the class
 * directly) skip the check.
 */
class WindowTable {
  public:
    /**
     * Binds the table to the cross-object lock that guards it; every
     * later operation asserts (under lockdep) that the calling thread
     * holds it. Bind before publishing the table to other threads.
     */
    void bindGuard(const SharedMutex *guard) { guard_ = guard; }

    /** Adds a range (classified as @p type) belonging to window @p wid. */
    void add(mem::PageType type, const void *ptr, std::size_t size, Wid wid)
    {
        checkGuard();
        TypeIndex &idx = indexOf(type);
        const WindowRange r{ptr, size, wid};
        idx.ranges.insert(
            std::upper_bound(idx.ranges.begin(), idx.ranges.end(),
                             r.start(),
                             [](uintptr_t q, const WindowRange &w) {
                                 return q < w.start();
                             }),
            r);
        idx.maxSize = std::max(idx.maxSize, size);
    }

    /**
     * Removes the range starting at @p ptr from window @p wid.
     * @return true if a range was removed.
     */
    bool remove(Wid wid, const void *ptr)
    {
        checkGuard();
        for (auto &idx : indexes_) {
            for (std::size_t i = 0; i < idx.ranges.size(); ++i) {
                if (idx.ranges[i].wid == wid &&
                    idx.ranges[i].ptr == ptr) {
                    idx.ranges.erase(idx.ranges.begin() +
                                     static_cast<std::ptrdiff_t>(i));
                    return true;
                }
            }
        }
        return false;
    }

    /** Removes every range belonging to window @p wid. */
    void removeAll(Wid wid)
    {
        checkGuard();
        for (auto &idx : indexes_) {
            std::erase_if(idx.ranges, [wid](const WindowRange &r) {
                return r.wid == wid;
            });
        }
    }

    /**
     * Interval lookup (paper §5.3 step ❸) for a range containing
     * @p ptr in the array for @p type: binary search to the last range
     * starting at or before @p ptr, then walk back no further than the
     * largest registered range could reach.
     * @return the window id, or kInvalidWindow.
     */
    Wid findWindowFor(mem::PageType type, const void *ptr) const
    {
        checkGuard();
        const TypeIndex &idx = indexOf(type);
        const auto q = reinterpret_cast<uintptr_t>(ptr);
        auto it = std::upper_bound(
            idx.ranges.begin(), idx.ranges.end(), q,
            [](uintptr_t p, const WindowRange &w) {
                return p < w.start();
            });
        while (it != idx.ranges.begin()) {
            --it;
            if (it->contains(ptr))
                return it->wid;
            if (it->start() + idx.maxSize <= q)
                break; // nothing earlier can reach ptr
        }
        return kInvalidWindow;
    }

    /**
     * Merged contiguous coverage of window @p wid around @p ptr: the
     * range containing @p ptr extended over byte-adjacent neighbours
     * belonging to the same window. This is what the range-granular
     * fault handler retags in one pkey_mprotect instead of one page —
     * a window staged as many small ranges (e.g. per-block FS grants
     * laid out back-to-back) still coalesces into one retag.
     *
     * @return an empty span when no range of @p wid contains @p ptr.
     */
    RangeSpan coverageFor(mem::PageType type, Wid wid,
                          const void *ptr) const
    {
        checkGuard();
        const TypeIndex &idx = indexOf(type);
        const auto q = reinterpret_cast<uintptr_t>(ptr);
        auto it = std::upper_bound(
            idx.ranges.begin(), idx.ranges.end(), q,
            [](uintptr_t p, const WindowRange &w) {
                return p < w.start();
            });
        std::ptrdiff_t hit = -1;
        while (it != idx.ranges.begin()) {
            --it;
            if (it->wid == wid && it->contains(ptr)) {
                hit = it - idx.ranges.begin();
                break;
            }
            if (it->start() + idx.maxSize <= q)
                break; // nothing earlier can reach ptr
        }
        if (hit < 0)
            return RangeSpan{};
        RangeSpan span{idx.ranges[static_cast<std::size_t>(hit)].start(),
                       idx.ranges[static_cast<std::size_t>(hit)].start() +
                           idx.ranges[static_cast<std::size_t>(hit)].size};
        for (auto i = static_cast<std::size_t>(hit); i-- > 0;) {
            const WindowRange &r = idx.ranges[i];
            if (r.wid != wid || r.start() + r.size != span.start)
                break;
            span.start = r.start();
        }
        for (auto i = static_cast<std::size_t>(hit) + 1;
             i < idx.ranges.size(); ++i) {
            const WindowRange &r = idx.ranges[i];
            if (r.wid != wid || r.start() != span.end)
                break;
            span.end = r.start() + r.size;
        }
        return span;
    }

    /**
     * Every range currently registered for window @p wid, across all
     * three type arrays. Cold-path helper for eager prestaging.
     */
    std::vector<WindowRange> rangesOf(Wid wid) const
    {
        checkGuard();
        std::vector<WindowRange> out;
        for (const auto &idx : indexes_) {
            for (const WindowRange &r : idx.ranges) {
                if (r.wid == wid)
                    out.push_back(r);
            }
        }
        return out;
    }

    /** Number of ranges currently registered for @p type. */
    std::size_t rangeCount(mem::PageType type) const
    {
        return indexOf(type).ranges.size();
    }

    /** Total ranges across all three arrays. */
    std::size_t totalRanges() const
    {
        std::size_t n = 0;
        for (const auto &idx : indexes_)
            n += idx.ranges.size();
        return n;
    }

  private:
    /**
     * One sorted range array. maxSize only ever grows — it is a bound
     * on the backwards walk, not an exact maximum, so removes need not
     * rescan.
     */
    struct TypeIndex {
        std::vector<WindowRange> ranges;
        std::size_t maxSize = 0;
    };

    static std::size_t slotFor(mem::PageType type)
    {
        switch (type) {
          case mem::PageType::kGlobal:
          case mem::PageType::kCode:
            return 0;
          case mem::PageType::kStack:
            return 1;
          default:
            return 2; // heap
        }
    }

    void checkGuard() const
    {
        if constexpr (lockdep::kEnabled) {
            if (guard_ != nullptr)
                lockdep::assertHeld(guard_, "WindowTable");
        }
    }

    TypeIndex &indexOf(mem::PageType type)
    {
        return indexes_[slotFor(type)];
    }
    const TypeIndex &indexOf(mem::PageType type) const
    {
        return indexes_[slotFor(type)];
    }

    std::array<TypeIndex, 3> indexes_;
    const SharedMutex *guard_ = nullptr;
};

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_WINDOW_H_
