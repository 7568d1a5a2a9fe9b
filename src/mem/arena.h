/**
 * @file
 * Page-granular allocator over the simulated address space.
 *
 * The trusted monitor uses one PageAllocator to hand whole-page runs to
 * cubicles (code images, per-cubicle stacks, heap chunks). Every
 * allocation tags the pages with the owner's MPK key and records the
 * owner/type in the page metadata map, enforcing the paper's rule that
 * pages are assigned an owner and type at allocation time (§5.3).
 */

#ifndef CUBICLEOS_MEM_ARENA_H_
#define CUBICLEOS_MEM_ARENA_H_

#include <cstddef>
#include <map>

#include "hw/page_table.h"
#include "mem/page_meta.h"

namespace cubicleos::mem {

/** A run of contiguous pages handed out by the PageAllocator. */
struct PageRange {
    std::size_t first = 0; ///< index of the first page
    std::size_t count = 0; ///< number of pages
    std::byte *ptr = nullptr; ///< host pointer to the first byte

    bool valid() const { return ptr != nullptr && count > 0; }
    std::size_t sizeBytes() const { return count * hw::kPageSize; }
};

/**
 * First-fit free-list allocator of page runs.
 *
 * Not thread-safe by itself; the monitor serialises calls.
 */
class PageAllocator {
  public:
    /**
     * Manages all pages of @p space, recording ownership in @p meta.
     *
     * @param reserve_first number of leading pages kept out of the pool
     *        (the monitor's own data lives there).
     */
    PageAllocator(hw::AddressSpace *space, PageMetaMap *meta,
                  std::size_t reserve_first = 0);

    /**
     * Allocates @p n contiguous pages for cubicle @p owner.
     *
     * Pages are mapped with @p perms, tagged with MPK key @p pkey, and
     * recorded as @p type in the metadata map. Returns an invalid range
     * when the pool is exhausted.
     */
    PageRange allocPages(std::size_t n, Cid owner, PageType type,
                         uint8_t perms, uint8_t pkey);

    /**
     * Zeroes a previously allocated range and returns it to the pool,
     * so every page the pool hands out reads as zeros: the space is
     * demand-zero only until a page's first use. Frees nothing
     * unless every page of @p range lies in the space and is allocated
     * to one owner as one type, so an overrun, a second free or a run
     * across two owners' pages leaves the pool untouched.
     * @return whether the range was freed.
     */
    bool freePages(const PageRange &range);

    /** Pages currently available in the pool. */
    std::size_t freePageCount() const;

    /** Total pages handed out and not yet freed. */
    std::size_t usedPageCount() const { return used_; }

  private:
    hw::AddressSpace *space_;
    PageMetaMap *meta_;
    /** free runs: first page -> count, coalesced on free */
    std::map<std::size_t, std::size_t> freeRuns_;
    std::size_t used_ = 0;
};

} // namespace cubicleos::mem

#endif // CUBICLEOS_MEM_ARENA_H_
