/**
 * @file
 * Unit tests for the simulated MPK: PKRU register semantics, key
 * allocation, and the modified execute-permission semantics.
 */

#include <gtest/gtest.h>

#include "hw/mpk.h"

namespace cubicleos::hw {
namespace {

TEST(Pkru, DenyAllDeniesEveryKey)
{
    Pkru pkru = Pkru::denyAll();
    for (int k = 0; k < kNumPhysPkeys; ++k) {
        EXPECT_FALSE(pkru.canRead(k)) << k;
        EXPECT_FALSE(pkru.canWrite(k)) << k;
    }
}

TEST(Pkru, AllowAllAllowsEveryKey)
{
    Pkru pkru = Pkru::allowAll();
    for (int k = 0; k < kNumPhysPkeys; ++k) {
        EXPECT_TRUE(pkru.canRead(k)) << k;
        EXPECT_TRUE(pkru.canWrite(k)) << k;
    }
}

TEST(Pkru, AllowSingleKeyLeavesOthersDenied)
{
    Pkru pkru = Pkru::denyAll();
    pkru.allow(5);
    for (int k = 0; k < kNumPhysPkeys; ++k) {
        EXPECT_EQ(pkru.canRead(k), k == 5) << k;
        EXPECT_EQ(pkru.canWrite(k), k == 5) << k;
    }
}

TEST(Pkru, ReadOnlyKeyAllowsReadDeniesWrite)
{
    Pkru pkru = Pkru::denyAll();
    pkru.allowReadOnly(3);
    EXPECT_TRUE(pkru.canRead(3));
    EXPECT_FALSE(pkru.canWrite(3));
}

TEST(Pkru, DenyRevokesAccess)
{
    Pkru pkru = Pkru::allowAll();
    pkru.deny(7);
    EXPECT_FALSE(pkru.canRead(7));
    EXPECT_FALSE(pkru.canWrite(7));
    EXPECT_TRUE(pkru.canRead(6));
}

TEST(Pkru, RawLayoutMatchesX86)
{
    // Key i: bit 2i = AD, bit 2i+1 = WD.
    Pkru pkru = Pkru::allowAll();
    pkru.deny(1);
    EXPECT_EQ(pkru.raw(), 0b1100u);

    Pkru ro = Pkru::allowAll();
    ro.allowReadOnly(0);
    EXPECT_EQ(ro.raw(), 0b10u);
}

TEST(Pkru, EqualityComparesRawValue)
{
    Pkru a = Pkru::denyAll();
    Pkru b = Pkru::denyAll();
    EXPECT_EQ(a, b);
    b.allow(2);
    EXPECT_NE(a, b);
}

TEST(Mpk, AllocatesFifteenKeysAfterMonitorKey)
{
    Mpk mpk;
    // Key 0 is reserved for the monitor; 1..15 are allocatable.
    for (int expected = 1; expected < kNumPhysPkeys; ++expected)
        EXPECT_EQ(mpk.allocKey(), expected);
    EXPECT_EQ(mpk.allocKey(), -1) << "16th allocation must fail";
}

TEST(Mpk, PhysBudgetCapsAllocation)
{
    Mpk mpk(/*phys_budget=*/4);
    EXPECT_EQ(mpk.physBudget(), 4);
    EXPECT_EQ(mpk.allocKey(), 1);
    EXPECT_EQ(mpk.allocKey(), 2);
    EXPECT_EQ(mpk.allocKey(), 3);
    EXPECT_EQ(mpk.allocKey(), -1) << "budget of 4 leaves 3 allocatable";
}

TEST(Mpk, FreedKeysAreReusedFirstAndCounted)
{
    Mpk mpk(/*phys_budget=*/4);
    EXPECT_EQ(mpk.allocKey(), 1);
    EXPECT_EQ(mpk.allocKey(), 2);
    EXPECT_EQ(mpk.remainingKeys(), 1);

    // A freed key counts as remaining and is handed out before a
    // fresh one.
    mpk.freeKey(1);
    EXPECT_EQ(mpk.remainingKeys(), 2);
    EXPECT_EQ(mpk.allocKey(), 1);
    EXPECT_EQ(mpk.remainingKeys(), 1);
    EXPECT_EQ(mpk.allocKey(), 3);
    EXPECT_EQ(mpk.allocKey(), -1) << "budget of 4 leaves 3 allocatable";
    EXPECT_EQ(mpk.remainingKeys(), 0);

    // An exhausted allocator recovers every freed key, lowest first.
    mpk.freeKey(3);
    mpk.freeKey(2);
    EXPECT_EQ(mpk.remainingKeys(), 2);
    EXPECT_EQ(mpk.allocKey(), 2);
    EXPECT_EQ(mpk.allocKey(), 3);
    EXPECT_EQ(mpk.allocKey(), -1);
}

TEST(Mpk, CheckReadWrite)
{
    Mpk mpk;
    Pkru pkru = Pkru::denyAll();
    pkru.allowReadOnly(4);

    EXPECT_FALSE(mpk.check(pkru, 4, Access::kRead).has_value());
    auto w = mpk.check(pkru, 4, Access::kWrite);
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(*w, FaultReason::kPkuWrite);

    auto r = mpk.check(pkru, 9, Access::kRead);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, FaultReason::kPkuRead);
}

TEST(Mpk, ModifiedSemanticsDenyExecOnFullyDeniedKey)
{
    Mpk mpk;
    Pkru pkru = Pkru::denyAll();
    auto x = mpk.check(pkru, 2, Access::kExec);
    ASSERT_TRUE(x.has_value());
    EXPECT_EQ(*x, FaultReason::kExecDenied);

    // Read-only access re-enables execution.
    pkru.allowReadOnly(2);
    EXPECT_FALSE(mpk.check(pkru, 2, Access::kExec).has_value());
}

/** PKRU sweep: every (key, mode) combination behaves independently. */
class PkruSweep : public ::testing::TestWithParam<int> {};

TEST_P(PkruSweep, KeyIndependence)
{
    const int key = GetParam();
    Pkru pkru = Pkru::denyAll();
    pkru.allow(key);
    for (int other = 0; other < kNumPhysPkeys; ++other) {
        if (other == key)
            continue;
        EXPECT_FALSE(pkru.canRead(other));
        pkru.allowReadOnly(other);
        EXPECT_TRUE(pkru.canRead(other));
        EXPECT_FALSE(pkru.canWrite(other));
        pkru.deny(other);
        EXPECT_TRUE(pkru.canWrite(key)) << "key " << key << " disturbed";
    }
}

INSTANTIATE_TEST_SUITE_P(AllKeys, PkruSweep,
                         ::testing::Range(0, kNumPhysPkeys));

} // namespace
} // namespace cubicleos::hw
