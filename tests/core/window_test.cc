/**
 * @file
 * Unit tests for window descriptors and the per-cubicle window tables.
 */

#include <gtest/gtest.h>

#include "core/window.h"

namespace cubicleos::core {
namespace {

TEST(AclMask, BitPerCubicle)
{
    EXPECT_EQ(aclBit(0), 1u);
    EXPECT_EQ(aclBit(5), 1u << 5);
    AclMask acl = aclBit(2) | aclBit(7);
    EXPECT_TRUE(acl & aclBit(2));
    EXPECT_FALSE(acl & aclBit(3));
}

TEST(AclMask, OutOfRangeCubicleThrowsInsteadOfAliasing)
{
    // cid % kMaxCubicles used to silently alias cubicle 64 onto
    // cubicle 0's ACL bit — an isolation hole, not a convenience.
    EXPECT_EQ(aclBit(static_cast<Cid>(kMaxCubicles - 1)),
              AclMask{1} << (kMaxCubicles - 1));
    EXPECT_THROW(aclBit(static_cast<Cid>(kMaxCubicles)), WindowError);
    EXPECT_THROW(aclBit(static_cast<Cid>(kMaxCubicles + 1)), WindowError);
    EXPECT_THROW(aclBit(kNoCubicle), WindowError);
}

TEST(AclMask, OldSixtyFourCubicleBoundaryIsNoLongerACeiling)
{
    // Regression guard for the 64 -> 128 cid widening: the mask used
    // to be a bare uint64_t, so cid 64 was the first unrepresentable
    // cubicle. Bits on both sides of the old boundary must now be
    // distinct, usable, and must not alias into the low word.
    static_assert(kMaxCubicles >= 128,
                  "tag virtualisation needs headroom past 64 cubicles");
    const AclMask below = aclBit(static_cast<Cid>(63));
    const AclMask at = aclBit(static_cast<Cid>(64));
    const AclMask above = aclBit(static_cast<Cid>(127));
    EXPECT_TRUE(static_cast<bool>(at));
    EXPECT_TRUE(static_cast<bool>(above));
    EXPECT_FALSE(static_cast<bool>(below & at));
    EXPECT_FALSE(static_cast<bool>(at & above));
    // Bit 64 must live in the high word, not wrap onto cubicle 0.
    EXPECT_FALSE(static_cast<bool>(at & aclBit(0)));
    EXPECT_EQ(at.lo, 0u);
    EXPECT_EQ(at.hi, 1u);
    EXPECT_EQ(below.lo, uint64_t{1} << 63);
    EXPECT_EQ(below.hi, 0u);
    // Set-union and clearing work across the word boundary.
    AclMask acl = below | at | above;
    acl &= ~at;
    EXPECT_TRUE(static_cast<bool>(acl & below));
    EXPECT_FALSE(static_cast<bool>(acl & at));
    EXPECT_TRUE(static_cast<bool>(acl & above));
}

TEST(WindowRange, ContainsIsHalfOpen)
{
    // The range sits inside a larger buffer, so both neighbours are
    // valid pointers into it.
    char buf[66];
    WindowRange r{buf + 1, 64, 1};
    EXPECT_TRUE(r.contains(buf + 1));
    EXPECT_TRUE(r.contains(buf + 64));
    EXPECT_FALSE(r.contains(buf + 65));
    EXPECT_FALSE(r.contains(buf));
}

class WindowTableTest : public ::testing::Test {
  protected:
    WindowTable table;
    char stack_buf[128];
    char heap_buf[128];
    char global_buf[128];
};

TEST_F(WindowTableTest, FindSearchesOnlyMatchingTypeArray)
{
    table.add(mem::PageType::kStack, stack_buf, 128, 1);
    table.add(mem::PageType::kHeap, heap_buf, 128, 2);
    table.add(mem::PageType::kGlobal, global_buf, 128, 3);

    EXPECT_EQ(table.findWindowFor(mem::PageType::kStack, stack_buf + 5), 1u);
    EXPECT_EQ(table.findWindowFor(mem::PageType::kHeap, heap_buf + 5), 2u);
    EXPECT_EQ(table.findWindowFor(mem::PageType::kGlobal, global_buf), 3u);

    // A stack address is not found via the heap array.
    EXPECT_EQ(table.findWindowFor(mem::PageType::kHeap, stack_buf),
              kInvalidWindow);
}

TEST_F(WindowTableTest, MissReturnsInvalid)
{
    table.add(mem::PageType::kHeap, heap_buf, 64, 2);
    EXPECT_EQ(table.findWindowFor(mem::PageType::kHeap, heap_buf + 100),
              kInvalidWindow);
}

TEST_F(WindowTableTest, RemoveSpecificRange)
{
    table.add(mem::PageType::kHeap, heap_buf, 64, 2);
    table.add(mem::PageType::kHeap, heap_buf + 64, 64, 2);
    EXPECT_TRUE(table.remove(2, heap_buf));
    EXPECT_EQ(table.findWindowFor(mem::PageType::kHeap, heap_buf),
              kInvalidWindow);
    EXPECT_EQ(table.findWindowFor(mem::PageType::kHeap, heap_buf + 64), 2u);
    EXPECT_FALSE(table.remove(2, heap_buf)) << "already removed";
}

TEST_F(WindowTableTest, RemoveAllForWindow)
{
    table.add(mem::PageType::kHeap, heap_buf, 64, 7);
    table.add(mem::PageType::kStack, stack_buf, 64, 7);
    table.add(mem::PageType::kHeap, heap_buf + 64, 64, 8);
    table.removeAll(7);
    EXPECT_EQ(table.totalRanges(), 1u);
    EXPECT_EQ(table.findWindowFor(mem::PageType::kHeap, heap_buf + 64), 8u);
}

TEST_F(WindowTableTest, MultipleRangesLinearSearchFindsFirstMatch)
{
    // Paper §5.3: all but one cubicle have <10 windows, so a linear
    // search suffices; verify many ranges still resolve correctly.
    for (int i = 0; i < 32; ++i)
        table.add(mem::PageType::kHeap, heap_buf + i * 4, 4, 100 + i);
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(table.findWindowFor(mem::PageType::kHeap,
                                      heap_buf + i * 4 + 1),
                  static_cast<Wid>(100 + i));
    }
    EXPECT_EQ(table.rangeCount(mem::PageType::kHeap), 32u);
}

TEST_F(WindowTableTest, CodePagesShareGlobalArray)
{
    table.add(mem::PageType::kCode, global_buf, 16, 4);
    EXPECT_EQ(table.findWindowFor(mem::PageType::kGlobal, global_buf), 4u);
}

TEST_F(WindowTableTest, SortedIndexResolvesOutOfOrderInsertion)
{
    // The interval index sorts by start address at insert time, so
    // lookups must not depend on registration order.
    table.add(mem::PageType::kHeap, heap_buf + 96, 32, 12);
    table.add(mem::PageType::kHeap, heap_buf, 32, 10);
    table.add(mem::PageType::kHeap, heap_buf + 48, 32, 11);

    EXPECT_EQ(table.findWindowFor(mem::PageType::kHeap, heap_buf + 1), 10u);
    EXPECT_EQ(table.findWindowFor(mem::PageType::kHeap, heap_buf + 50), 11u);
    EXPECT_EQ(table.findWindowFor(mem::PageType::kHeap, heap_buf + 100),
              12u);
    // Gap between ranges misses.
    EXPECT_EQ(table.findWindowFor(mem::PageType::kHeap, heap_buf + 40),
              kInvalidWindow);
    // Just past the last range misses too.
    EXPECT_EQ(table.findWindowFor(mem::PageType::kHeap, heap_buf + 127),
              12u);
}

TEST_F(WindowTableTest, BackwardWalkBoundedByLargestRange)
{
    // A large early range must still be found for addresses deep
    // inside it even when many small later ranges sort between its
    // start and the queried address.
    table.add(mem::PageType::kStack, stack_buf, 128, 20);
    table.add(mem::PageType::kHeap, heap_buf, 8, 21);
    table.add(mem::PageType::kHeap, heap_buf + 16, 8, 22);
    EXPECT_EQ(table.findWindowFor(mem::PageType::kStack, stack_buf + 127),
              20u);
    EXPECT_EQ(table.findWindowFor(mem::PageType::kHeap, heap_buf + 17),
              22u);
    // Address between the small heap ranges: the bound must not stop
    // the walk before the containment checks reject both.
    EXPECT_EQ(table.findWindowFor(mem::PageType::kHeap, heap_buf + 12),
              kInvalidWindow);
}

TEST_F(WindowTableTest, CoverageForMergesAdjacentRangesOfSameWindow)
{
    // Window 7 staged as two back-to-back ranges (the per-block FS
    // grant layout); window 9 holds the adjacent bytes. coverageFor
    // must merge 7's ranges and stop at 9's, in both directions.
    table.add(mem::PageType::kHeap, heap_buf, 32, 7);
    table.add(mem::PageType::kHeap, heap_buf + 32, 32, 7);
    table.add(mem::PageType::kHeap, heap_buf + 64, 32, 9);

    const RangeSpan s =
        table.coverageFor(mem::PageType::kHeap, 7, heap_buf + 40);
    EXPECT_EQ(s.start, reinterpret_cast<uintptr_t>(heap_buf));
    EXPECT_EQ(s.size(), 64u);

    const RangeSpan other =
        table.coverageFor(mem::PageType::kHeap, 9, heap_buf + 70);
    EXPECT_EQ(other.start,
              reinterpret_cast<uintptr_t>(heap_buf) + 64);
    EXPECT_EQ(other.size(), 32u);

    // No range of the asked-for window contains the address: empty.
    EXPECT_TRUE(table.coverageFor(mem::PageType::kHeap, 7,
                                  heap_buf + 70)
                    .empty());
    EXPECT_TRUE(
        table.coverageFor(mem::PageType::kStack, 7, heap_buf).empty());
}

TEST_F(WindowTableTest, CoverageForDoesNotMergeAcrossGaps)
{
    table.add(mem::PageType::kHeap, heap_buf, 16, 4);
    table.add(mem::PageType::kHeap, heap_buf + 32, 16, 4); // gap at 16
    const RangeSpan s =
        table.coverageFor(mem::PageType::kHeap, 4, heap_buf + 4);
    EXPECT_EQ(s.start, reinterpret_cast<uintptr_t>(heap_buf));
    EXPECT_EQ(s.size(), 16u);
}

} // namespace
} // namespace cubicleos::core
