/**
 * @file
 * Hot-window tests (paper §8's "window-specific tags" proposal):
 * dedicated MPK keys per window, eager tagging, PKRU-mask grants and
 * revocation, key exhaustion.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <memory>

#include "core/system.h"
#include "tests/core/toy_components.h"

namespace cubicleos::core {
namespace {

using testing::ToyComponent;
using testing::addToy;
using testing::numbered;

class HotWindowTest : public ::testing::Test {
  protected:
    void boot()
    {
        SystemConfig cfg;
        cfg.numPages = 2048;
        sys = std::make_unique<System>(cfg);
        addToy(*sys, "owner");
        addToy(*sys, "peer");
        addToy(*sys, "spy");
        sys->boot();
        owner = sys->cidOf("owner");
        peer = sys->cidOf("peer");
        spy = sys->cidOf("spy");
        sys->runAs(owner, [&] {
            buf = static_cast<char *>(sys->heapAlloc(64));
            wid = sys->windowInit();
            sys->windowSetHot(wid);
            sys->windowAdd(wid, buf, 64);
            sys->windowOpen(wid, peer);
        });
    }

    std::unique_ptr<System> sys;
    Cid owner{}, peer{}, spy{};
    char *buf = nullptr;
    Wid wid{};
};

TEST_F(HotWindowTest, AclMemberAccessesWithoutTraps)
{
    boot();
    sys->stats().reset();
    sys->runAs(peer, [&] {
        for (int i = 0; i < 100; ++i)
            sys->touch(buf, 64, hw::Access::kWrite);
    });
    // The dedicated key is in the peer's PKRU: zero trap-and-map.
    EXPECT_EQ(sys->stats().traps(), 0u);
    EXPECT_EQ(sys->stats().retags(), 0u);
}

TEST_F(HotWindowTest, OwnerAndPeerInterleaveWithoutPingPong)
{
    boot();
    sys->stats().reset();
    for (int i = 0; i < 20; ++i) {
        sys->runAs(owner, [&] {
            sys->touch(buf, 64, hw::Access::kWrite);
        });
        sys->runAs(peer, [&] {
            sys->touch(buf, 64, hw::Access::kRead);
        });
    }
    EXPECT_EQ(sys->stats().retags(), 0u)
        << "hot windows must not retag per access";
}

TEST_F(HotWindowTest, NonAclCubicleStillFaults)
{
    boot();
    sys->runAs(spy, [&] {
        EXPECT_THROW(sys->touch(buf, 64, hw::Access::kRead),
                     hw::CubicleFault);
    });
}

TEST_F(HotWindowTest, CloseRevokesEagerly)
{
    boot();
    sys->runAs(peer,
               [&] { sys->touch(buf, 8, hw::Access::kRead); });
    sys->runAs(owner, [&] { sys->windowClose(wid, peer); });
    // Unlike lazy windows, hot windows revoke through the PKRU mask:
    // no owner reclaim needed before the peer faults.
    sys->runAs(peer, [&] {
        EXPECT_THROW(sys->touch(buf, 8, hw::Access::kRead),
                     hw::CubicleFault);
    });
}

TEST_F(HotWindowTest, DestroyReturnsPagesToOwner)
{
    boot();
    sys->runAs(owner, [&] {
        sys->windowDestroy(wid);
        EXPECT_NO_THROW(sys->touch(buf, 64, hw::Access::kWrite));
    });
    sys->runAs(peer, [&] {
        EXPECT_THROW(sys->touch(buf, 64, hw::Access::kRead),
                     hw::CubicleFault);
    });
}

TEST_F(HotWindowTest, OnlyOwnerCanPromote)
{
    boot();
    sys->runAs(peer, [&] {
        EXPECT_THROW(sys->windowSetHot(wid), WindowError);
    });
}

/** A booted system of toy cubicles @p names, with @p pages of memory. */
std::unique_ptr<System>
bootToys(std::size_t pages, std::initializer_list<const char *> names)
{
    SystemConfig cfg;
    cfg.numPages = pages;
    auto sys = std::make_unique<System>(cfg);
    for (const char *n : names)
        addToy(*sys, n);
    sys->boot();
    return sys;
}

int
tagOf(System &sys, std::size_t page)
{
    return sys.monitor().space().entryAt(page).pkey.load();
}

int
keyOf(System &sys, Cid cid)
{
    return sys.monitor().cubicle(cid).pkey.load();
}

TEST(HotWindowAdd, RetagsEveryPageAndDestroyCountsTheSweep)
{
    auto sys = bootToys(2048, {"a", "peer"});
    const Cid a = sys->cidOf("a");
    hw::AddressSpace &space = sys->monitor().space();
    const mem::PageRange buf =
        sys->monitor().allocPagesFor(a, 2, mem::PageType::kHeap);
    ASSERT_TRUE(buf.valid());

    Wid wid{};
    sys->stats().reset();
    sys->runAs(a, [&] {
        wid = sys->windowInit();
        sys->windowSetHot(wid);
        sys->windowAdd(wid, buf.ptr, 2 * hw::kPageSize);
    });
    const int hot = tagOf(*sys, buf.first);
    EXPECT_NE(hot, keyOf(*sys, a));
    EXPECT_EQ(tagOf(*sys, buf.first + 1), hot);
    EXPECT_EQ(sys->stats().retags(), 1u);
    EXPECT_EQ(sys->stats().retagPages(), 2u);

    // Destroy sweeps both pages back to the owner in one counted
    // pkey_mprotect, not one uncounted call per page.
    const uint64_t calls = space.retagCount();
    sys->runAs(a, [&] { sys->windowDestroy(wid); });
    EXPECT_EQ(space.retagCount() - calls, 1u);
    EXPECT_EQ(sys->stats().retags(), 2u);
    EXPECT_EQ(sys->stats().retagPages(), 4u);
    EXPECT_EQ(tagOf(*sys, buf.first + 1), keyOf(*sys, a));
}

TEST(HotWindowAdd, ForeignPageInsideTheRangeKeepsItsOwnersTag)
{
    auto sys = bootToys(2048, {"a", "b"});
    const Cid a = sys->cidOf("a");
    const Cid b = sys->cidOf("b");
    const mem::PageRange mine =
        sys->monitor().allocPagesFor(a, 1, mem::PageType::kHeap);
    const mem::PageRange theirs =
        sys->monitor().allocPagesFor(b, 1, mem::PageType::kHeap);
    ASSERT_EQ(theirs.first, mine.first + 1) << "pages must be adjacent";

    sys->stats().reset();
    sys->runAs(a, [&] {
        const Wid wid = sys->windowInit();
        sys->windowSetHot(wid);
        // windowAdd validates only the first page: the range runs on
        // from A's last page into B's.
        sys->windowAdd(wid, mine.ptr, 2 * hw::kPageSize);
        EXPECT_THROW(sys->touch(theirs.ptr, 1, hw::Access::kRead),
                     hw::CubicleFault);
    });
    EXPECT_EQ(sys->stats().violations(), 1u);
    EXPECT_EQ(sys->stats().retagPages(), 1u);
    EXPECT_EQ(tagOf(*sys, theirs.first), keyOf(*sys, b));
}

TEST(HotWindowAdd, RangePastTheEndOfTheSpaceIsClamped)
{
    auto sys = bootToys(256, {"a"});
    const Cid a = sys->cidOf("a");
    hw::AddressSpace &space = sys->monitor().space();
    // Take pages until A owns the last page of the space.
    mem::PageRange last;
    do {
        last = sys->monitor().allocPagesFor(a, 1, mem::PageType::kHeap);
        ASSERT_TRUE(last.valid());
    } while (last.first != space.numPages() - 1);

    const uint64_t pages = space.retagPageCount();
    sys->runAs(a, [&] {
        const Wid wid = sys->windowInit();
        sys->windowSetHot(wid);
        sys->windowAdd(wid, last.ptr, 17 * hw::kPageSize);
    });
    EXPECT_EQ(space.retagPageCount() - pages, 1u);
    EXPECT_NE(tagOf(*sys, last.first), keyOf(*sys, a));
}

TEST(HotWindowKeys, ExhaustionIsReported)
{
    SystemConfig cfg;
    cfg.numPages = 4096;
    cfg.stackPages = 2;
    System sys(cfg);
    // 10 isolated cubicles consume keys 2..11; 0 monitor, 1 shared.
    for (int i = 0; i < 10; ++i)
        addToy(sys, numbered("c", i));
    sys.boot();
    sys.runAs(sys.cidOf("c0"), [&] {
        char *p = static_cast<char *>(sys.heapAlloc(32));
        // Keys 12..15 remain: four hot windows fit, the fifth throws.
        for (int i = 0; i < 4; ++i) {
            const Wid w = sys.windowInit();
            sys.windowSetHot(w);
            sys.windowAdd(w, p, 32);
        }
        const Wid w5 = sys.windowInit();
        EXPECT_THROW(sys.windowSetHot(w5), WindowError);
    });
}

} // namespace
} // namespace cubicleos::core
