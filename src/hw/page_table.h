/**
 * @file
 * Simulated physical/virtual address space with a per-page table.
 *
 * All cubicle memory (code images, globals, stacks, heaps) is carved out
 * of one contiguous AddressSpace, so page lookups are O(1) array indexing
 * — mirroring both MMU behaviour and CubicleOS's O(1) page metadata maps
 * (paper §5.3).
 *
 * The page table holds, per page: presence, R/W/X permissions, and the
 * 4-bit MPK protection key. Access checks combine page permissions with
 * the PKRU state, exactly as the hardware would. A per-group key
 * summary lets the monitor's tag sweeps skip groups that cannot hold
 * the tag they look for (DESIGN.md §14).
 */

#ifndef CUBICLEOS_HW_PAGE_TABLE_H_
#define CUBICLEOS_HW_PAGE_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "hw/cycles.h"
#include "hw/fault.h"
#include "hw/mpk.h"
#include "hw/relaxed_atomic.h"

namespace cubicleos::hw {

/** Page size of the simulated machine (x86-64 base pages). */
inline constexpr std::size_t kPageSize = 4096;
/** log2(kPageSize). */
inline constexpr std::size_t kPageShift = 12;

/** Pages per group of the key summary (AddressSpace::groupKeys). */
inline constexpr std::size_t kKeyGroupPages = 64;

/** Rounds @p n up to a whole number of pages. */
constexpr std::size_t
pagesFor(std::size_t n)
{
    return (n + kPageSize - 1) / kPageSize;
}

/** Page-table permission bits. */
enum PagePerm : uint8_t {
    kPermNone = 0,
    kPermRead = 1 << 0,
    kPermWrite = 1 << 1,
    kPermExec = 1 << 2,
};

/**
 * One page-table entry of the simulated MMU.
 *
 * Fields are individually word-atomic (RelaxedAtomic), mirroring how
 * hardware page-table walks race benignly with PTE updates: a checker
 * thread observes either the old or the new tag, never a torn value.
 * This is what lets the monitor's trap-and-map handler commit a grant
 * (setKeyRange) under a shared lock while other threads run access checks
 * with no lock at all.
 */
struct PageEntry {
    RelaxedAtomic<bool> present = false;
    RelaxedAtomic<uint8_t> perms = kPermNone;
    RelaxedAtomic<uint8_t> pkey = Mpk::kMonitorKey;
};

/**
 * A contiguous simulated address space with page-granular protection.
 *
 * Pointers handed out by the runtime are real host pointers into the
 * backing memory, so components run at native speed on their own data;
 * protection is evaluated by check() at the instrumentation points.
 *
 * The backing memory is one private anonymous host mapping, as the
 * paper's prototype gets its memory from the Linux kernel: every page
 * reads as zeros until first written, and only pages a deployment
 * touches become resident. A page that is freed and handed out again
 * is not demand-zero any more, so mem::PageAllocator::freePages
 * scrubs every run it takes back.
 */
class AddressSpace {
  public:
    /**
     * Creates an address space of @p num_pages pages, all reading as
     * zeros and none resident until touched.
     *
     * @param clock cycle clock charged for priced operations (setKeyRange).
     * @throws std::bad_alloc if the host refuses the mapping.
     */
    AddressSpace(std::size_t num_pages, CycleClock *clock);

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    std::byte *base() { return memory_.get(); }
    const std::byte *base() const { return memory_.get(); }
    std::size_t numPages() const { return entries_.size(); }
    std::size_t sizeBytes() const { return numPages() * kPageSize; }

    /** True if @p ptr points into the simulated space. */
    bool contains(const void *ptr) const
    {
        auto *p = static_cast<const std::byte *>(ptr);
        return p >= memory_.get() && p < memory_.get() + sizeBytes();
    }

    /** Returns the page index of @p ptr; @p ptr must be inside. */
    std::size_t pageIndexOf(const void *ptr) const
    {
        return static_cast<std::size_t>(
            static_cast<const std::byte *>(ptr) - memory_.get())
            >> kPageShift;
    }

    /** Returns a pointer to the first byte of page @p idx. */
    std::byte *pageAt(std::size_t idx)
    {
        return memory_.get() + idx * kPageSize;
    }

    /** Read-only: map, unmap and setKeyRange are the only writers. */
    const PageEntry &entryAt(std::size_t idx) const { return entries_[idx]; }

    /** Maps @p n pages starting at @p first with @p perms and @p pkey. */
    void map(std::size_t first, std::size_t n, uint8_t perms, uint8_t pkey);

    /** Unmaps @p n pages starting at @p first. */
    void unmap(std::size_t first, std::size_t n);

    /**
     * Reassigns the protection key on a page range.
     *
     * Models pkey_mprotect: charges cost::kPkeyMprotect per *call*
     * (the paper's >1,100-cycle kernel path), however many pages the
     * range covers — which is exactly why range-granular retagging
     * amortises the trap-and-map cost. The per-page tag write is an
     * atomic store, so a retag may commit concurrently with other
     * threads' access checks and with other retags: the last writer
     * wins, exactly like racing pkey_mprotect calls on real hardware.
     * Callers need no exclusive lock around setKeyRange.
     *
     * @return the number of pages retagged (== @p n).
     */
    std::size_t setKeyRange(std::size_t first, std::size_t n,
                            uint8_t pkey);

    /** Changes the page-table permissions on a range (no key change). */
    void setPerms(std::size_t first, std::size_t n, uint8_t perms);

    /**
     * Evaluates an access of @p len bytes at @p ptr under @p pkru.
     *
     * Checks every page the range touches; returns the first fault, or
     * no value if the whole access is allowed. This is the software
     * stand-in for the MMU+MPK check on a real load/store.
     */
    std::optional<Fault> check(const Mpk &mpk, const Pkru &pkru,
                               const void *ptr, std::size_t len,
                               Access access) const;

    /**
     * The key summary of group @p g, pages [g, g + 1) * kKeyGroupPages:
     * bit k set when some present page of the group may carry key k.
     * Conservative: map and setKeyRange store the tags, then set the
     * bit (release); only a clearing forEachKeyRun clears one.
     */
    uint16_t groupKeys(std::size_t g) const
    {
        return groupKeys_[g].load(std::memory_order_acquire);
    }

    /**
     * Calls @p scan(first, end) for each maximal run of groups whose
     * summary flags @p key, in address order, with [first, end) the
     * run's pages. A present page carrying @p key outside every run
     * was tagged by a writer racing this walk, whose bit stays set.
     *
     * With @p clear, each group's bit is cleared (acquire) before its
     * run is scanned, and @p scan must move every present page that
     * carries @p key out of the run. A writer racing such a sweep has
     * its page swept or its bit left set: either its fetch-or comes
     * first in the group's modification order, and the clear makes
     * its tag stores visible to the scan, or it comes after the clear.
     *
     * @return pages in the visited runs: the entries @p scan may read.
     */
    template <typename Scan>
    std::size_t forEachKeyRun(uint8_t key, bool clear, Scan scan)
    {
        const uint16_t bit = keyBit(key);
        auto flagged = [&](std::size_t g) {
            if ((groupKeys_[g].load(std::memory_order_acquire) & bit) == 0)
                return false;
            if (clear)
                groupKeys_[g].fetch_and(static_cast<uint16_t>(~bit),
                                        std::memory_order_acquire);
            return true;
        };
        const std::size_t groups = groupKeys_.size();
        std::size_t visited = 0;
        for (std::size_t g = 0; g < groups; ++g) {
            if (!flagged(g))
                continue;
            std::size_t end = g + 1;
            while (end < groups && flagged(end))
                ++end;
            const std::size_t first = g * kKeyGroupPages;
            const std::size_t last =
                std::min(end * kKeyGroupPages, numPages());
            scan(first, last);
            visited += last - first;
            g = end; // read unflagged: a later writer keeps its bit
        }
        return visited;
    }

    /** Number of setKeyRange invocations (retag statistics). */
    uint64_t retagCount() const { return retags_; }

    /** Total pages covered across all setKeyRange invocations. */
    uint64_t retagPageCount() const { return retagPages_; }

  private:
    /** Unmaps the backing mapping of @c bytes bytes. */
    struct Unmapper {
        std::size_t bytes = 0;
        void operator()(std::byte *p) const;
    };

    /** Summary bit of @p key; keys past the 16 tags alias mod 16. */
    static uint16_t keyBit(uint8_t key)
    {
        return static_cast<uint16_t>(1u << (key % kNumPhysPkeys));
    }

    /** Flags @p key in every group [first, first + n) touches. */
    void flagKey(std::size_t first, std::size_t n, uint8_t key);

    /**
     * Demand-zero backing memory (one anonymous mapping). First among
     * the members, so a refused mapping throws before any is built.
     */
    std::unique_ptr<std::byte[], Unmapper> memory_;
    std::vector<PageEntry> entries_;
    /** One key mask per kKeyGroupPages pages (groupKeys). */
    std::vector<std::atomic<uint16_t>> groupKeys_;
    CycleClock *clock_;
    RelaxedAtomic<uint64_t> retags_ = uint64_t{0};
    RelaxedAtomic<uint64_t> retagPages_ = uint64_t{0};
};

} // namespace cubicleos::hw

#endif // CUBICLEOS_HW_PAGE_TABLE_H_
