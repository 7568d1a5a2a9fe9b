/**
 * @file
 * Unit tests for the simulated address space and page-table checks.
 */

#include <gtest/gtest.h>

#include "hw/page_table.h"

namespace cubicleos::hw {
namespace {

class AddressSpaceTest : public ::testing::Test {
  protected:
    CycleClock clock;
    AddressSpace space{64, &clock};
    Mpk mpk;
};

TEST_F(AddressSpaceTest, GeometryAndContainment)
{
    EXPECT_EQ(space.numPages(), 64u);
    EXPECT_EQ(space.sizeBytes(), 64u * kPageSize);
    EXPECT_TRUE(space.contains(space.base()));
    EXPECT_TRUE(space.contains(space.base() + space.sizeBytes() - 1));
    EXPECT_FALSE(space.contains(space.base() + space.sizeBytes()));

    int on_host_stack = 0;
    EXPECT_FALSE(space.contains(&on_host_stack));
}

TEST_F(AddressSpaceTest, PageIndexing)
{
    EXPECT_EQ(space.pageIndexOf(space.base()), 0u);
    EXPECT_EQ(space.pageIndexOf(space.base() + kPageSize), 1u);
    EXPECT_EQ(space.pageIndexOf(space.base() + kPageSize - 1), 0u);
    EXPECT_EQ(space.pageAt(3), space.base() + 3 * kPageSize);
}

TEST_F(AddressSpaceTest, UnmappedPagesFaultNotPresent)
{
    auto fault = space.check(mpk, Pkru::allowAll(), space.base(), 1,
                             Access::kRead);
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(fault->reason, FaultReason::kNotPresent);
}

TEST_F(AddressSpaceTest, MappedPageRespectsPagePerms)
{
    space.map(0, 1, kPermRead, 2);
    Pkru pkru = Pkru::allowAll();
    EXPECT_FALSE(space.check(mpk, pkru, space.base(), 8, Access::kRead));
    auto w = space.check(mpk, pkru, space.base(), 8, Access::kWrite);
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(w->reason, FaultReason::kPagePerm);
}

TEST_F(AddressSpaceTest, PkuCheckUsesPageKey)
{
    space.map(0, 2, kPermRead | kPermWrite, 3);
    Pkru pkru = Pkru::denyAll();
    auto f = space.check(mpk, pkru, space.base(), 4, Access::kRead);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->reason, FaultReason::kPkuRead);
    EXPECT_EQ(f->pkey, 3);

    pkru.allow(3);
    EXPECT_FALSE(space.check(mpk, pkru, space.base(), 4, Access::kRead));
}

TEST_F(AddressSpaceTest, MultiPageAccessChecksEveryPage)
{
    // Pages 0..2 mapped; page 1 carries a different key.
    space.map(0, 3, kPermRead | kPermWrite, 2);
    space.setKeyRange(1, 1, 5);
    Pkru pkru = Pkru::denyAll();
    pkru.allow(2);

    auto f = space.check(mpk, pkru, space.base(), 3 * kPageSize,
                         Access::kRead);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->pkey, 5);
    // Fault address points at the start of the offending page.
    EXPECT_EQ(f->addr, space.pageAt(1));
}

TEST_F(AddressSpaceTest, StraddlingAccessFaultsOnSecondPage)
{
    space.map(0, 1, kPermRead | kPermWrite, 2);
    // Page 1 unmapped: access straddling 0->1 faults not-present.
    Pkru pkru = Pkru::allowAll();
    const void *p = space.base() + kPageSize - 8;
    auto f = space.check(mpk, pkru, p, 16, Access::kRead);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->reason, FaultReason::kNotPresent);
}

TEST_F(AddressSpaceTest, SetKeyChargesPkeyMprotectCost)
{
    space.map(0, 4, kPermRead, 2);
    const uint64_t before = clock.read();
    space.setKeyRange(0, 4, 3);
    EXPECT_EQ(clock.read() - before, cost::kPkeyMprotect);
    EXPECT_EQ(space.retagCount(), 1u);
    EXPECT_EQ(space.entryAt(0).pkey, 3);
    EXPECT_EQ(space.entryAt(3).pkey, 3);
}

TEST_F(AddressSpaceTest, ZeroLengthAccessAlwaysAllowed)
{
    EXPECT_FALSE(
        space.check(mpk, Pkru::denyAll(), space.base(), 0, Access::kWrite));
}

TEST_F(AddressSpaceTest, OutsideSpaceFaults)
{
    int host_var = 0;
    auto f = space.check(mpk, Pkru::allowAll(), &host_var, 4,
                         Access::kRead);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->reason, FaultReason::kOutsideSpace);
}

TEST_F(AddressSpaceTest, ExecOnlyPagesDenyReadAllowExec)
{
    space.map(0, 1, kPermExec, 2);
    Pkru pkru = Pkru::allowAll();
    auto r = space.check(mpk, pkru, space.base(), 1, Access::kRead);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->reason, FaultReason::kPagePerm);
    EXPECT_FALSE(space.check(mpk, pkru, space.base(), 1, Access::kExec));
}

TEST_F(AddressSpaceTest, ModifiedExecSemanticsInCombination)
{
    space.map(0, 1, kPermExec, 4);
    Pkru pkru = Pkru::denyAll(); // AD+WD on key 4 -> exec denied
    auto f = space.check(mpk, pkru, space.base(), 1, Access::kExec);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->reason, FaultReason::kExecDenied);
}

TEST_F(AddressSpaceTest, UnmapClearsEntries)
{
    space.map(0, 2, kPermRead, 2);
    space.unmap(0, 1);
    EXPECT_FALSE(space.entryAt(0).present);
    EXPECT_TRUE(space.entryAt(1).present);
}

TEST(FaultTest, DescribeMentionsReasonAndAccess)
{
    Fault f{nullptr, Access::kWrite, FaultReason::kPkuWrite, 7};
    const std::string s = f.describe();
    EXPECT_NE(s.find("write"), std::string::npos);
    EXPECT_NE(s.find("pku-write"), std::string::npos);
    EXPECT_NE(s.find("pkey=7"), std::string::npos);
}

TEST(FaultTest, CubicleFaultCarriesFault)
{
    Fault f{nullptr, Access::kRead, FaultReason::kPkuRead, 3};
    CubicleFault ex(f);
    EXPECT_EQ(ex.fault().pkey, 3);
    EXPECT_NE(std::string(ex.what()).find("pku-read"), std::string::npos);
}

} // namespace
} // namespace cubicleos::hw
