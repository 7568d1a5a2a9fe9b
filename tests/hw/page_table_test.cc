/**
 * @file
 * Unit tests for the simulated address space and page-table checks.
 */

#include <gtest/gtest.h>

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <random>
#include <vector>

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

/** mincore's residency byte for each page of @p space. */
std::vector<unsigned char>
residency(AddressSpace &space)
{
    std::vector<unsigned char> vec(space.numPages());
    EXPECT_EQ(mincore(space.base(), space.sizeBytes(), vec.data()), 0);
    return vec;
}

// The space is demand-zero: building it zeroes nothing, and a page
// becomes resident only when touched. A counted page figure, not a
// timing: with an eagerly zeroed buffer every page reads resident.
TEST_F(AddressSpaceTest, FreshSpaceHasNoResidentPages)
{
    AddressSpace fresh(16384, &clock);
    const auto before = residency(fresh);
    EXPECT_EQ(std::count_if(before.begin(), before.end(),
                            [](unsigned char v) { return v & 1; }),
              0);

    // Touched pages turn resident; a page in another 2 MB region stays
    // out whatever the host's huge-page mode, and reads as zeros.
    for (std::size_t idx : {std::size_t{0}, std::size_t{5000},
                            std::size_t{16383}})
        fresh.pageAt(idx)[8] = std::byte{1};
    const auto after = residency(fresh);
    EXPECT_EQ(after[0] & 1, 1);
    EXPECT_EQ(after[5000] & 1, 1);
    EXPECT_EQ(after[16383] & 1, 1);
    EXPECT_EQ(after[10000] & 1, 0);
    EXPECT_EQ(fresh.pageAt(10000)[8], std::byte{0});
}

// 2^40 pages (4 PiB) exceed the x86-64 user address space, so the host
// always refuses the mapping; the constructor throws, not a null base.
TEST_F(AddressSpaceTest, SpaceTooLargeToMapThrows)
{
    EXPECT_THROW(AddressSpace(std::size_t{1} << 40, &clock),
                 std::bad_alloc);
}

// The key summary: one 16-bit mask per kKeyGroupPages pages, walked in
// maximal runs of flagged groups by the eviction and fault-in sweeps.

/** Runs forEachKeyRun(key, clear=false) and collects its runs. */
std::vector<std::pair<std::size_t, std::size_t>>
keyRuns(AddressSpace &space, uint8_t key)
{
    std::vector<std::pair<std::size_t, std::size_t>> runs;
    space.forEachKeyRun(key, /*clear=*/false,
                        [&](std::size_t first, std::size_t end) {
                            runs.emplace_back(first, end);
                        });
    return runs;
}

TEST(KeySummary, WalkVisitsMaximalFlaggedRunsAndClearsOnSweep)
{
    CycleClock clock;
    AddressSpace space(5 * kKeyGroupPages - 10, &clock); // short tail
    space.map(10, 100, kPermRead, 3);               // groups 0 and 1
    space.map(4 * kKeyGroupPages, 5, kPermRead, 3); // the tail group
    space.map(2 * kKeyGroupPages, 1, kPermRead, 4); // group 2

    using Runs = std::vector<std::pair<std::size_t, std::size_t>>;
    EXPECT_EQ(keyRuns(space, 3),
              (Runs{{0, 2 * kKeyGroupPages},
                    {4 * kKeyGroupPages, space.numPages()}}));
    EXPECT_EQ(keyRuns(space, 4),
              (Runs{{2 * kKeyGroupPages, 3 * kKeyGroupPages}}));
    EXPECT_TRUE(keyRuns(space, 5).empty());

    // A sweep moving every page of key 3 clears its flags first, and
    // its own retags flag the destination key.
    const std::size_t visited = space.forEachKeyRun(
        3, /*clear=*/true, [&](std::size_t first, std::size_t end) {
            for (std::size_t p = first; p < end; ++p) {
                if (space.entryAt(p).present && space.entryAt(p).pkey == 3)
                    space.setKeyRange(p, 1, 5);
            }
        });
    EXPECT_EQ(visited, 2 * kKeyGroupPages + (space.numPages() -
                                              4 * kKeyGroupPages));
    EXPECT_TRUE(keyRuns(space, 3).empty());
    EXPECT_EQ(keyRuns(space, 5),
              (Runs{{0, 2 * kKeyGroupPages},
                    {4 * kKeyGroupPages, space.numPages()}}));
}

TEST(KeySummary, RandomOpsKeepEveryPresentKeyFlaggedAndWalked)
{
    // Seeded map/unmap/setKeyRange sequences plus clearing sweeps (as
    // the eviction runs them). After every step each present page's
    // key is flagged in its group, and the walk for that key visits
    // the page.
    CycleClock clock;
    constexpr std::size_t kPages = 15 * kKeyGroupPages + 40;
    AddressSpace space(kPages, &clock);
    std::mt19937 rng(0x5EEDu);
    for (int step = 0; step < 1500; ++step) {
        const std::size_t first = rng() % kPages;
        const std::size_t n =
            1 + rng() % std::min<std::size_t>(3 * kKeyGroupPages,
                                              kPages - first);
        const auto key = static_cast<uint8_t>(rng() % kNumPhysPkeys);
        switch (rng() % 4) {
          case 0: space.map(first, n, kPermRead, key); break;
          case 1: space.unmap(first, n); break;
          case 2: space.setKeyRange(first, n, key); break;
          default: {
            const auto to = static_cast<uint8_t>(rng() % kNumPhysPkeys);
            space.forEachKeyRun(
                key, /*clear=*/true,
                [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t p = lo; p < hi; ++p) {
                        if (space.entryAt(p).present &&
                            space.entryAt(p).pkey == key)
                            space.setKeyRange(p, 1, to);
                    }
                });
            break;
          }
        }

        for (uint8_t k = 0; k < kNumPhysPkeys; ++k) {
            std::vector<bool> walked(kPages, false);
            for (const auto &[lo, hi] : keyRuns(space, k)) {
                ASSERT_LT(lo, hi);
                ASSERT_LE(hi, kPages);
                std::fill(walked.begin() + static_cast<long>(lo),
                          walked.begin() + static_cast<long>(hi), true);
            }
            for (std::size_t p = 0; p < kPages; ++p) {
                if (!space.entryAt(p).present || space.entryAt(p).pkey != k)
                    continue;
                ASSERT_NE(space.groupKeys(p / kKeyGroupPages) & (1u << k),
                          0u)
                    << "step " << step << ": page " << p << " key "
                    << int(k) << " not flagged";
                ASSERT_TRUE(walked[p])
                    << "step " << step << ": page " << p << " key "
                    << int(k) << " not walked";
            }
        }
    }
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
