/**
 * @file
 * Unit and property tests for the page-run allocator.
 */

#include <gtest/gtest.h>

#include <vector>

#include "hw/prng.h"
#include "mem/arena.h"

namespace cubicleos::mem {
namespace {

class PageAllocatorTest : public ::testing::Test {
  protected:
    hw::CycleClock clock;
    hw::AddressSpace space{128, &clock};
    PageMetaMap meta{128};
    PageAllocator alloc{&space, &meta};
};

TEST_F(PageAllocatorTest, AllocMapsTagsAndRecordsOwnership)
{
    PageRange r = alloc.allocPages(4, /*owner=*/3, PageType::kHeap,
                                   hw::kPermRead | hw::kPermWrite,
                                   /*pkey=*/5);
    ASSERT_TRUE(r.valid());
    EXPECT_EQ(r.count, 4u);
    EXPECT_EQ(r.ptr, space.pageAt(r.first));
    for (std::size_t i = r.first; i < r.first + r.count; ++i) {
        EXPECT_TRUE(space.entryAt(i).present);
        EXPECT_EQ(space.entryAt(i).pkey, 5);
        EXPECT_EQ(meta.at(i).owner, 3);
        EXPECT_EQ(meta.at(i).type, PageType::kHeap);
    }
}

TEST_F(PageAllocatorTest, ZeroPagesReturnsInvalid)
{
    EXPECT_FALSE(alloc.allocPages(0, 1, PageType::kHeap, 0, 1).valid());
}

TEST_F(PageAllocatorTest, ExhaustionReturnsInvalid)
{
    EXPECT_TRUE(alloc.allocPages(128, 1, PageType::kHeap, 0, 1).valid());
    EXPECT_FALSE(alloc.allocPages(1, 1, PageType::kHeap, 0, 1).valid());
}

TEST_F(PageAllocatorTest, FreeReturnsPagesAndClearsState)
{
    PageRange r = alloc.allocPages(8, 2, PageType::kStack,
                                   hw::kPermRead, 4);
    const std::size_t before = alloc.freePageCount();
    alloc.freePages(r);
    EXPECT_EQ(alloc.freePageCount(), before + 8);
    EXPECT_FALSE(space.entryAt(r.first).present);
    EXPECT_EQ(meta.at(r.first).owner, kNoCubicle);
}

TEST_F(PageAllocatorTest, FreeRefusesOverrunDoubleFreeAndMixedRuns)
{
    PageRange a = alloc.allocPages(4, 1, PageType::kHeap, 0, 1);
    PageRange b = alloc.allocPages(4, 2, PageType::kHeap, 0, 2);
    PageRange c = alloc.allocPages(4, 2, PageType::kStack, 0, 2);
    const std::size_t before = alloc.freePageCount();

    // Past the end of the space, across two owners, across two types.
    EXPECT_FALSE(alloc.freePages({a.first, space.numPages(), a.ptr}));
    EXPECT_FALSE(alloc.freePages({a.first, a.count + 1, a.ptr}));
    EXPECT_FALSE(alloc.freePages({b.first, b.count + 1, b.ptr}));
    EXPECT_EQ(alloc.freePageCount(), before);
    EXPECT_EQ(meta.at(b.first).owner, 2);

    // A second free of the same run.
    EXPECT_TRUE(alloc.freePages(a));
    EXPECT_FALSE(alloc.freePages(a));
    EXPECT_EQ(alloc.freePageCount(), before + a.count);
    EXPECT_EQ(alloc.usedPageCount(), b.count + c.count);
}

TEST_F(PageAllocatorTest, CoalescingAllowsFullReallocation)
{
    PageRange a = alloc.allocPages(32, 1, PageType::kHeap, 0, 1);
    PageRange b = alloc.allocPages(32, 1, PageType::kHeap, 0, 1);
    PageRange c = alloc.allocPages(64, 1, PageType::kHeap, 0, 1);
    ASSERT_TRUE(a.valid() && b.valid() && c.valid());
    // Free in an order that requires both-side coalescing.
    alloc.freePages(a);
    alloc.freePages(c);
    alloc.freePages(b);
    EXPECT_EQ(alloc.freePageCount(), 128u);
    EXPECT_TRUE(
        alloc.allocPages(128, 1, PageType::kHeap, 0, 1).valid());
}

TEST_F(PageAllocatorTest, ReservedPagesStayOutOfPool)
{
    PageAllocator reserved(&space, &meta, /*reserve_first=*/16);
    EXPECT_EQ(reserved.freePageCount(), 112u);
    PageRange r = reserved.allocPages(1, 1, PageType::kHeap, 0, 1);
    EXPECT_GE(r.first, 16u);
}

TEST_F(PageAllocatorTest, UsedCountTracksAllocations)
{
    EXPECT_EQ(alloc.usedPageCount(), 0u);
    PageRange r = alloc.allocPages(10, 1, PageType::kHeap, 0, 1);
    EXPECT_EQ(alloc.usedPageCount(), 10u);
    alloc.freePages(r);
    EXPECT_EQ(alloc.usedPageCount(), 0u);
}

/**
 * Property: random alloc/free interleavings never hand out overlapping
 * ranges and never lose pages.
 */
class PageAllocatorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageAllocatorProperty, NoOverlapNoLeak)
{
    hw::CycleClock clock;
    hw::AddressSpace space(256, &clock);
    PageMetaMap meta(256);
    PageAllocator alloc(&space, &meta);
    hw::Prng prng(GetParam());

    std::vector<PageRange> live;
    for (int step = 0; step < 500; ++step) {
        if (live.empty() || prng.nextBelow(2) == 0) {
            const auto n = 1 + prng.nextBelow(16);
            PageRange r =
                alloc.allocPages(n, 1, PageType::kHeap, 0, 1);
            if (!r.valid())
                continue;
            // No overlap with any live range.
            for (const auto &o : live) {
                EXPECT_TRUE(r.first + r.count <= o.first ||
                            o.first + o.count <= r.first)
                    << "overlap at step " << step;
            }
            live.push_back(r);
        } else {
            const auto idx = prng.nextBelow(live.size());
            alloc.freePages(live[idx]);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    std::size_t live_pages = 0;
    for (const auto &r : live)
        live_pages += r.count;
    EXPECT_EQ(alloc.usedPageCount(), live_pages);
    EXPECT_EQ(alloc.freePageCount() + live_pages, 256u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageAllocatorProperty,
                         ::testing::Values(1, 2, 3, 42, 1337));

} // namespace
} // namespace cubicleos::mem
