#include "mem/arena.h"

#include <cassert>
#include <cstring>

namespace cubicleos::mem {

PageAllocator::PageAllocator(hw::AddressSpace *space, PageMetaMap *meta,
                             std::size_t reserve_first)
    : space_(space), meta_(meta)
{
    assert(reserve_first <= space->numPages());
    if (reserve_first < space->numPages()) {
        freeRuns_[reserve_first] = space->numPages() - reserve_first;
    }
}

PageRange
PageAllocator::allocPages(std::size_t n, Cid owner, PageType type,
                          uint8_t perms, uint8_t pkey)
{
    if (n == 0)
        return {};
    for (auto it = freeRuns_.begin(); it != freeRuns_.end(); ++it) {
        if (it->second < n)
            continue;
        const std::size_t first = it->first;
        const std::size_t leftover = it->second - n;
        freeRuns_.erase(it);
        if (leftover > 0)
            freeRuns_[first + n] = leftover;

        space_->map(first, n, perms, pkey);
        meta_->assign(first, n, owner, type);
        used_ += n;
        return PageRange{first, n, space_->pageAt(first)};
    }
    return {};
}

bool
PageAllocator::freePages(const PageRange &range)
{
    const std::size_t pages = space_->numPages();
    if (!range.valid() || range.first >= pages ||
        range.count > pages - range.first)
        return false;
    const PageMeta &head = meta_->at(range.first);
    for (std::size_t i = range.first; i < range.first + range.count; ++i) {
        const PageMeta &m = meta_->at(i);
        if (head.owner == kNoCubicle || m.owner != head.owner ||
            m.type != head.type)
            return false;
    }
    // Scrub before the run changes hands: the next owner must not read
    // what this one left behind. Only a never-used page is demand-zero
    // (hw::AddressSpace), a recycled run is not. From the page index,
    // not range.ptr, which a caller may have pointed into the run's
    // first page.
    std::memset(space_->pageAt(range.first), 0, range.sizeBytes());
    space_->unmap(range.first, range.count);
    meta_->release(range.first, range.count);
    used_ -= range.count;

    // Insert and coalesce with neighbours.
    auto [it, inserted] = freeRuns_.emplace(range.first, range.count);
    assert(inserted);
    if (it != freeRuns_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second == it->first) {
            prev->second += it->second;
            freeRuns_.erase(it);
            it = prev;
        }
    }
    auto next = std::next(it);
    if (next != freeRuns_.end() && it->first + it->second == next->first) {
        it->second += next->second;
        freeRuns_.erase(next);
    }
    return true;
}

std::size_t
PageAllocator::freePageCount() const
{
    std::size_t n = 0;
    for (const auto &[first, count] : freeRuns_)
        n += count;
    return n;
}

} // namespace cubicleos::mem
