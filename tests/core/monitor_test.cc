/**
 * @file
 * Trap-and-map, window-API and loader tests against a booted System.
 *
 * These are the core behavioural guarantees of the paper: spatial
 * isolation (cubicles), temporal isolation (windows), causal tag
 * consistency, and loader-enforced integrity.
 */

#include <gtest/gtest.h>

#include "core/system.h"
#include "tests/core/toy_components.h"

namespace cubicleos::core {
namespace {

using testing::addToy;
using testing::numbered;
using testing::ToyComponent;

class TwoCubicleTest : public ::testing::Test {
  protected:
    void bootWith(IsolationMode mode)
    {
        SystemConfig cfg;
        cfg.numPages = 1024;
        cfg.mode = mode;
        sys = std::make_unique<System>(cfg);
        addToy(*sys, "foo");
        addToy(*sys, "bar");
        sys->boot();
        foo = sys->cidOf("foo");
        bar = sys->cidOf("bar");
        sys->runAs(foo, [&] {
            buf = static_cast<char *>(sys->heapAlloc(64));
            std::memset(buf, 0x11, 64);
        });
    }

    std::unique_ptr<System> sys;
    Cid foo = kNoCubicle;
    Cid bar = kNoCubicle;
    char *buf = nullptr;
};

TEST_F(TwoCubicleTest, SpatialIsolationBlocksForeignAccess)
{
    bootWith(IsolationMode::kFull);
    // BAR has no window over FOO's buffer: read and write both fault.
    sys->runAs(bar, [&] {
        EXPECT_THROW(sys->touch(buf, 64, hw::Access::kRead),
                     hw::CubicleFault);
        EXPECT_THROW(sys->touch(buf, 64, hw::Access::kWrite),
                     hw::CubicleFault);
    });
    EXPECT_GE(sys->stats().violations(), 2u);
    // FOO itself accesses freely (implicit window 0).
    sys->runAs(foo, [&] {
        EXPECT_NO_THROW(sys->touch(buf, 64, hw::Access::kWrite));
    });
}

TEST_F(TwoCubicleTest, WindowGrantsZeroCopyAccess)
{
    bootWith(IsolationMode::kFull);
    Wid wid = 0;
    sys->runAs(foo, [&] {
        wid = sys->windowInit();
        sys->windowAdd(wid, buf, 64);
        sys->windowOpen(wid, bar);
    });
    sys->runAs(bar, [&] {
        EXPECT_NO_THROW(sys->touch(buf, 64, hw::Access::kWrite));
        buf[5] = 0x42; // zero-copy: writes land in FOO's memory
    });
    EXPECT_EQ(buf[5], 0x42);
    EXPECT_GE(sys->stats().traps(), 1u);
    EXPECT_GE(sys->stats().retags(), 1u);
}

TEST_F(TwoCubicleTest, FirstAccessTrapsSecondDoesNot)
{
    bootWith(IsolationMode::kFull);
    sys->runAs(foo, [&] {
        Wid wid = sys->windowInit();
        sys->windowAdd(wid, buf, 64);
        sys->windowOpen(wid, bar);
    });
    sys->runAs(bar, [&] {
        sys->touch(buf, 64, hw::Access::kRead);
        const uint64_t traps = sys->stats().traps();
        sys->touch(buf, 64, hw::Access::kRead);
        // Lazy retagging: the page now carries BAR's tag; no new trap.
        EXPECT_EQ(sys->stats().traps(), traps);
    });
}

TEST_F(TwoCubicleTest, CausalTagConsistencyAfterClose)
{
    bootWith(IsolationMode::kFull);
    Wid wid = 0;
    sys->runAs(foo, [&] {
        wid = sys->windowInit();
        sys->windowAdd(wid, buf, 64);
        sys->windowOpen(wid, bar);
    });
    sys->runAs(bar, [&] { sys->touch(buf, 64, hw::Access::kRead); });

    // FOO closes the window. Pages are NOT retagged eagerly: BAR may
    // still access them until another cubicle touches the page (§5.6).
    sys->runAs(foo, [&] { sys->windowClose(wid, bar); });
    sys->runAs(bar, [&] {
        EXPECT_NO_THROW(sys->touch(buf, 64, hw::Access::kRead));
    });

    // Once FOO touches the page it is retagged back; now BAR's access
    // is a real violation.
    sys->runAs(foo, [&] { sys->touch(buf, 64, hw::Access::kWrite); });
    sys->runAs(bar, [&] {
        EXPECT_THROW(sys->touch(buf, 64, hw::Access::kRead),
                     hw::CubicleFault);
    });
}

TEST_F(TwoCubicleTest, ReopenRestoresAccess)
{
    bootWith(IsolationMode::kFull);
    Wid wid = 0;
    sys->runAs(foo, [&] {
        wid = sys->windowInit();
        sys->windowAdd(wid, buf, 64);
        sys->windowOpen(wid, bar);
    });
    sys->runAs(bar, [&] { sys->touch(buf, 64, hw::Access::kRead); });
    sys->runAs(foo, [&] {
        sys->windowClose(wid, bar);
        sys->touch(buf, 64, hw::Access::kWrite); // retag back
        sys->windowOpen(wid, bar);               // reopen
    });
    sys->runAs(bar, [&] {
        EXPECT_NO_THROW(sys->touch(buf, 64, hw::Access::kRead));
    });
}

TEST_F(TwoCubicleTest, WindowRemoveStopsFutureGrants)
{
    bootWith(IsolationMode::kFull);
    Wid wid = 0;
    sys->runAs(foo, [&] {
        wid = sys->windowInit();
        sys->windowAdd(wid, buf, 64);
        sys->windowOpen(wid, bar);
        sys->windowRemove(wid, buf);
    });
    sys->runAs(bar, [&] {
        EXPECT_THROW(sys->touch(buf, 64, hw::Access::kRead),
                     hw::CubicleFault);
    });
}

TEST_F(TwoCubicleTest, WindowDestroyStopsFutureGrants)
{
    bootWith(IsolationMode::kFull);
    Wid wid = 0;
    sys->runAs(foo, [&] {
        wid = sys->windowInit();
        sys->windowAdd(wid, buf, 64);
        sys->windowOpen(wid, bar);
        sys->windowDestroy(wid);
    });
    sys->runAs(bar, [&] {
        EXPECT_THROW(sys->touch(buf, 64, hw::Access::kRead),
                     hw::CubicleFault);
    });
    // The wid slot can be reused by a fresh window.
    sys->runAs(foo, [&] { EXPECT_EQ(sys->windowInit(), wid); });
}

TEST_F(TwoCubicleTest, CloseAllClearsEveryPeer)
{
    bootWith(IsolationMode::kFull);
    Wid wid = 0;
    sys->runAs(foo, [&] {
        wid = sys->windowInit();
        sys->windowAdd(wid, buf, 64);
        sys->windowOpen(wid, bar);
        sys->windowCloseAll(wid);
        sys->touch(buf, 1, hw::Access::kRead); // ensure owner tag
    });
    EXPECT_EQ(sys->monitor().windowAcl(wid), 0u);
    sys->runAs(bar, [&] {
        EXPECT_THROW(sys->touch(buf, 64, hw::Access::kRead),
                     hw::CubicleFault);
    });
}

TEST_F(TwoCubicleTest, OnlyOwnerManagesWindow)
{
    bootWith(IsolationMode::kFull);
    Wid wid = 0;
    sys->runAs(foo, [&] {
        wid = sys->windowInit();
        sys->windowAdd(wid, buf, 64);
    });
    // The nested-call rule (§5.6): BAR cannot manage FOO's window.
    sys->runAs(bar, [&] {
        EXPECT_THROW(sys->windowOpen(wid, bar), WindowError);
        EXPECT_THROW(sys->windowClose(wid, foo), WindowError);
        EXPECT_THROW(sys->windowRemove(wid, buf), WindowError);
        EXPECT_THROW(sys->windowDestroy(wid), WindowError);
    });
}

TEST_F(TwoCubicleTest, WindowOutsideAnyCubicleIsRefused)
{
    // A window's owner must be a cubicle: every later window call
    // indexes the owner's window table. Host context is no cubicle.
    bootWith(IsolationMode::kFull);
    EXPECT_THROW(sys->windowInit(), WindowError);
}

TEST_F(TwoCubicleTest, WindowAddRequiresOwnedMemory)
{
    bootWith(IsolationMode::kFull);
    sys->runAs(bar, [&] {
        Wid wid = sys->windowInit();
        // buf belongs to FOO; BAR cannot share it.
        EXPECT_THROW(sys->windowAdd(wid, buf, 64), WindowError);
    });
}

TEST_F(TwoCubicleTest, InvalidWidRejected)
{
    bootWith(IsolationMode::kFull);
    sys->runAs(foo, [&] {
        EXPECT_THROW(sys->windowOpen(12345, bar), WindowError);
    });
}

TEST_F(TwoCubicleTest, OutOfRangePeerRejectedNotAliased)
{
    bootWith(IsolationMode::kFull);
    sys->runAs(foo, [&] {
        const Wid wid = sys->windowInit();
        sys->windowAdd(wid, buf, 64);
        // A peer id beyond the ACL width used to wrap modulo
        // kMaxCubicles and grant the aliased cubicle instead.
        EXPECT_THROW(sys->windowOpen(
                         wid, static_cast<Cid>(kMaxCubicles)),
                     WindowError);
        EXPECT_THROW(sys->windowOpen(
                         wid, static_cast<Cid>(kMaxCubicles + bar)),
                     WindowError);
        EXPECT_EQ(sys->monitor().windowAcl(wid), 0u)
            << "failed opens must not leave ACL bits behind";
    });
}

TEST_F(TwoCubicleTest, NoAclModeGrantsAnyCrossAccess)
{
    bootWith(IsolationMode::kNoAcl);
    // "Windows open for any access": no window was created, yet the
    // access succeeds after a trap-and-map retag.
    sys->runAs(bar, [&] {
        EXPECT_NO_THROW(sys->touch(buf, 64, hw::Access::kWrite));
    });
    EXPECT_GE(sys->stats().traps(), 1u);
    EXPECT_GE(sys->stats().retags(), 1u);
}

TEST_F(TwoCubicleTest, NoMpkModeSkipsChecks)
{
    bootWith(IsolationMode::kNoMpk);
    sys->runAs(bar, [&] {
        EXPECT_NO_THROW(sys->touch(buf, 64, hw::Access::kWrite));
    });
    EXPECT_EQ(sys->stats().traps(), 0u);
}

TEST_F(TwoCubicleTest, UnikraftModeSkipsChecks)
{
    bootWith(IsolationMode::kUnikraft);
    sys->runAs(bar, [&] {
        EXPECT_NO_THROW(sys->touch(buf, 64, hw::Access::kWrite));
    });
    EXPECT_EQ(sys->stats().traps(), 0u);
}

TEST_F(TwoCubicleTest, HostMemoryIsNotPoliced)
{
    bootWith(IsolationMode::kFull);
    int host_var = 7;
    sys->runAs(bar, [&] {
        EXPECT_NO_THROW(sys->touch(&host_var, 4, hw::Access::kWrite));
    });
}

TEST_F(TwoCubicleTest, ExecOfForeignPagesDenied)
{
    bootWith(IsolationMode::kFull);
    // BAR attempts to execute FOO's code pages: modified-MPK exec
    // semantics deny it (CFI building block).
    const auto &code = sys->monitor().cubicle(foo).codeRange;
    sys->runAs(bar, [&] {
        EXPECT_THROW(sys->checkExec(code.ptr), hw::CubicleFault);
    });
    // FOO may execute its own code.
    sys->runAs(foo, [&] { EXPECT_NO_THROW(sys->checkExec(code.ptr)); });
}

TEST_F(TwoCubicleTest, DataPagesAreNotExecutable)
{
    bootWith(IsolationMode::kFull);
    sys->runAs(foo, [&] {
        EXPECT_THROW(sys->checkExec(buf), hw::CubicleFault);
    });
}

TEST_F(TwoCubicleTest, StackFrameAllocatesTaggedMemory)
{
    bootWith(IsolationMode::kFull);
    sys->runAs(foo, [&] {
        StackFrame frame(*sys);
        auto *stack_buf =
            static_cast<char *>(frame.allocPageAligned(100));
        ASSERT_NE(stack_buf, nullptr);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(stack_buf) % 4096, 0u);
        sys->touch(stack_buf, 100, hw::Access::kWrite);
        // The page is typed kStack and owned by FOO.
        const auto &meta = sys->monitor().pageMeta().at(
            sys->monitor().space().pageIndexOf(stack_buf));
        EXPECT_EQ(meta.owner, foo);
        EXPECT_EQ(meta.type, mem::PageType::kStack);
    });
    // Frame destruction restored the bump pointer.
    EXPECT_EQ(sys->monitor().stackOffset(foo), 0u);
}

TEST(MonitorTest, StackWindowsWorkLikeHeapWindows)
{
    // Figure 2's scenario: a caller shares a stack buffer with the
    // callee through a window, and the callee writes it zero-copy.
    SystemConfig cfg;
    cfg.numPages = 1024;
    System sys(cfg);
    addToy(sys, "writer").onExports([](Exporter &exp, ToyComponent &me) {
        exp.fn<void(char *, std::size_t)>(
            "poke", [&me](char *p, std::size_t n) {
                me.sys()->touch(p, n, hw::Access::kWrite);
                p[0] = 1;
            });
    });
    addToy(sys, "caller");
    sys.boot();

    auto poke = sys.resolve<void(char *, std::size_t)>("writer", "poke");
    const Cid writer = sys.cidOf("writer");
    const Cid caller = sys.cidOf("caller");
    (void)caller;
    sys.runAs(sys.cidOf("caller"), [&] {
        StackFrame frame(sys);
        auto *sbuf = static_cast<char *>(frame.allocPageAligned(64));
        Wid wid = sys.windowInit();
        sys.windowAdd(wid, sbuf, 64);
        sys.windowOpen(wid, writer);
        poke(sbuf, 64);
        EXPECT_EQ(sbuf[0], 1);
        sys.windowDestroy(wid);
    });
}

TEST(MonitorTest, LoaderRejectsHostileImage)
{
    SystemConfig cfg;
    cfg.numPages = 512;
    System sys(cfg);
    std::vector<uint8_t> evil(128, 0x90);
    evil[7] = 0x0F;
    evil[8] = 0x01;
    evil[9] = 0xEF; // wrpkru
    addToy(sys, "evil").withImage(evil);
    EXPECT_THROW(sys.boot(), LoaderError);
}

TEST(MonitorTest, LoaderRejectsSyscallImage)
{
    SystemConfig cfg;
    cfg.numPages = 512;
    System sys(cfg);
    std::vector<uint8_t> evil(128, 0x90);
    evil[100] = 0x0F;
    evil[101] = 0x05; // syscall
    addToy(sys, "evil").withImage(evil);
    EXPECT_THROW(sys.boot(), LoaderError);
}

TEST(MonitorTest, KeyExhaustionWithoutVirtualisation)
{
    SystemConfig cfg;
    cfg.numPages = 4096;
    cfg.stackPages = 2;
    System sys(cfg);
    // Keys: 0 monitor, 1 shared => 14 isolated cubicles fit.
    for (int i = 0; i < 14; ++i)
        addToy(sys, numbered("c", i));
    EXPECT_NO_THROW(sys.boot());

    System sys2(cfg);
    for (int i = 0; i < 15; ++i)
        addToy(sys2, numbered("c", i));
    EXPECT_THROW(sys2.boot(), LoaderError);
}

TEST(MonitorTest, TagVirtualisationAllowsMoreCubicles)
{
    SystemConfig cfg;
    cfg.numPages = 8192;
    cfg.stackPages = 2;
    cfg.virtualizeTags = true;
    System sys(cfg);
    for (int i = 0; i < 20; ++i)
        addToy(sys, numbered("c", i));
    EXPECT_NO_THROW(sys.boot());
    const int parked = sys.monitor().parkedKey();
    ASSERT_GE(parked, 0);
    // Overflow cubicles are dynamically tagged and boot parked; no
    // cubicle ever owns a physical tag outside the hardware range.
    std::size_t n_parked = 0;
    for (int i = 0; i < 20; ++i) {
        const Cubicle &c = sys.monitor().cubicle(sys.cidOf(numbered("c", i)));
        EXPECT_LT(c.pkey.load(), hw::kNumPhysPkeys);
        if (c.pkey == parked) {
            ++n_parked;
            EXPECT_TRUE(c.dynamicTag());
        }
    }
    EXPECT_GT(n_parked, 0u) << "20 cubicles must overflow 16 tags";

    // Touching a parked cubicle's own memory faults it back in,
    // transparently binding a dynamic physical tag. Boot init calls
    // already cycled every cubicle through the dynamic pool, so pick
    // two that ended up parked.
    ASSERT_GE(n_parked, 2u);
    Cid late = kNoCubicle, other = kNoCubicle;
    for (int i = 19; i >= 0; --i) {
        const Cid cid = sys.cidOf(numbered("c", i));
        if (sys.monitor().cubicle(cid).pkey != parked)
            continue;
        if (late == kNoCubicle)
            late = cid;
        else if (other == kNoCubicle)
            other = cid;
    }
    ASSERT_NE(late, kNoCubicle);
    ASSERT_NE(other, kNoCubicle);
    auto &own = sys.monitor().cubicle(late).globalRange;
    sys.runAs(late, [&] {
        EXPECT_NO_THROW(sys.touch(own.ptr, 16, hw::Access::kWrite));
    });
    EXPECT_NE(sys.monitor().cubicle(late).pkey.load(), parked);
    EXPECT_LT(sys.monitor().cubicle(late).pkey.load(),
              hw::kNumPhysPkeys);
    EXPECT_GE(sys.monitor().cubicle(late).faultIns.load(), 1u);

    // Isolation survives virtualisation: another parked cubicle's
    // pages stay unreachable from the resident one.
    ASSERT_EQ(sys.monitor().cubicle(other).pkey.load(), parked);
    auto &foreign = sys.monitor().cubicle(other).globalRange;
    sys.runAs(late, [&] {
        EXPECT_THROW(sys.touch(foreign.ptr, 16, hw::Access::kRead),
                     hw::CubicleFault);
    });
}

TEST(MonitorTest, TagPressureEvictsLeastRecentlyUsedCubicle)
{
    SystemConfig cfg;
    cfg.numPages = 8192;
    cfg.stackPages = 2;
    cfg.virtualizeTags = true;
    cfg.physTagBudget = 6; // monitor, shared, parked + 3 dynamic
    cfg.dynamicTags = 3;
    System sys(cfg);
    for (int i = 0; i < 8; ++i)
        addToy(sys, numbered("c", i));
    EXPECT_NO_THROW(sys.boot());
    const int parked = sys.monitor().parkedKey();
    // With a budget of 6 every cubicle overflows into the logical
    // namespace; cycling through more cubicles than dynamic tags
    // forces LRU evictions yet every touch succeeds.
    for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < 8; ++i) {
            const Cid cid = sys.cidOf(numbered("c", i));
            auto &own = sys.monitor().cubicle(cid).globalRange;
            sys.runAs(cid, [&] {
                EXPECT_NO_THROW(
                    sys.touch(own.ptr, 16, hw::Access::kWrite));
            });
            EXPECT_NE(sys.monitor().cubicle(cid).pkey.load(), parked);
        }
    }
    EXPECT_GT(sys.stats().evictions(), 0u);
    EXPECT_GT(sys.stats().faultIns(), 0u);
    // Exactly dynamicTags cubicles can be resident at once.
    std::size_t resident = 0;
    for (int i = 0; i < 8; ++i) {
        if (sys.monitor()
                .cubicle(sys.cidOf(numbered("c", i)))
                .pkey != parked)
            ++resident;
    }
    EXPECT_LE(resident, cfg.dynamicTags);
}

TEST(MonitorTest, FaultInTakesTheLowestFreeTagElseEvictsTheLeastRecent)
{
    SystemConfig cfg;
    cfg.numPages = 4096;
    cfg.stackPages = 2;
    cfg.virtualizeTags = true;
    cfg.physTagBudget = 6; // monitor, shared, parked + 3 dynamic
    cfg.dynamicTags = 3;
    System sys(cfg);
    for (int i = 0; i < 4; ++i)
        addToy(sys, numbered("c", i));
    sys.boot();
    const Monitor &mon = sys.monitor();
    const int parked = mon.parkedKey();
    Cid c[4];
    for (int i = 0; i < 4; ++i)
        c[i] = sys.cidOf(numbered("c", i));
    auto tag = [&](int i) { return mon.cubicle(c[i]).pkey.load(); };

    // The pool is the three tags after the parked one. Boot's init
    // calls bound c0, c1 and c2 lowest tag first; c3's evicted c0.
    EXPECT_EQ(tag(0), parked);
    EXPECT_EQ(tag(1), parked + 2);
    EXPECT_EQ(tag(2), parked + 3);
    EXPECT_EQ(tag(3), parked + 1);

    // Entering c0, c1, c2, then c0 again leaves c3 parked and c1 the
    // least recently used holder.
    for (const int i : {0, 1, 2, 0})
        sys.runAs(c[i], [] {});
    ASSERT_EQ(tag(3), parked);
    const int c1Tag = tag(1);
    ASSERT_NE(c1Tag, parked);
    const uint64_t evictions = sys.stats().evictions();
    sys.runAs(c[3], [] {});
    EXPECT_EQ(sys.stats().evictions() - evictions, 1u);
    EXPECT_EQ(tag(1), parked);
    EXPECT_EQ(tag(3), c1Tag);
}

TEST(MonitorTest, SharedCubicleDataReadableEverywhere)
{
    SystemConfig cfg;
    cfg.numPages = 1024;
    System sys(cfg);
    addToy(sys, "libc", CubicleKind::kShared);
    addToy(sys, "app");
    sys.boot();
    const Cid libc = sys.cidOf("libc");
    const Cid app = sys.cidOf("app");
    auto &global = sys.monitor().cubicle(libc).globalRange;
    sys.runAs(app, [&] {
        EXPECT_NO_THROW(
            sys.touch(global.ptr, 16, hw::Access::kRead));
    });
}

TEST(MonitorTest, PkruForAllowsOwnAndSharedKeysOnly)
{
    SystemConfig cfg;
    cfg.numPages = 1024;
    System sys(cfg);
    addToy(sys, "a");
    addToy(sys, "b");
    sys.boot();
    const Cid a = sys.cidOf("a");
    const Cid b = sys.cidOf("b");
    hw::Pkru pkru = sys.monitor().pkruFor(a);
    EXPECT_TRUE(pkru.canWrite(sys.monitor().cubicle(a).pkey));
    EXPECT_TRUE(pkru.canRead(sys.monitor().sharedKey()));
    EXPECT_FALSE(pkru.canRead(sys.monitor().cubicle(b).pkey));
    EXPECT_FALSE(pkru.canRead(hw::Mpk::kMonitorKey));
}

TEST(MonitorTest, HeapPagesOwnedByAllocatingCubicle)
{
    SystemConfig cfg;
    cfg.numPages = 1024;
    System sys(cfg);
    addToy(sys, "a");
    sys.boot();
    const Cid a = sys.cidOf("a");
    sys.runAs(a, [&] {
        void *p = sys.heapAlloc(100);
        const auto &pm = sys.monitor().pageMeta().at(
            sys.monitor().space().pageIndexOf(p));
        EXPECT_EQ(pm.owner, a);
        EXPECT_EQ(pm.type, mem::PageType::kHeap);
        sys.heapFree(p);
    });
}

} // namespace
} // namespace cubicleos::core
