/**
 * @file
 * System facade tests: boot, symbol resolution, cross-cubicle calls,
 * call accounting, per-thread contexts and isolation-mode costs.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/system.h"
#include "tests/core/toy_components.h"

namespace cubicleos::core {
namespace {

using testing::ToyComponent;
using testing::addToy;
using testing::numbered;

SystemConfig
smallCfg(IsolationMode mode = IsolationMode::kFull)
{
    SystemConfig cfg;
    cfg.numPages = 1024;
    cfg.mode = mode;
    return cfg;
}

TEST(SystemTest, BootAssignsDenseCids)
{
    System sys(smallCfg());
    addToy(sys, "a");
    addToy(sys, "b");
    addToy(sys, "c");
    sys.boot();
    EXPECT_EQ(sys.cidOf("a"), 0);
    EXPECT_EQ(sys.cidOf("b"), 1);
    EXPECT_EQ(sys.cidOf("c"), 2);
    EXPECT_EQ(sys.cubicleCount(), 3u);
}

TEST(SystemTest, UnknownComponentThrows)
{
    System sys(smallCfg());
    addToy(sys, "a");
    sys.boot();
    EXPECT_THROW(sys.cidOf("nope"), LinkError);
}

TEST(SystemTest, CannotAddAfterBootOrDoubleBoot)
{
    System sys(smallCfg());
    addToy(sys, "a");
    sys.boot();
    EXPECT_THROW(addToy(sys, "late"), LoaderError);
    EXPECT_THROW(sys.boot(), LoaderError);
}

TEST(SystemTest, InitRunsInsideOwnCubicle)
{
    System sys(smallCfg());
    Cid observed = kNoCubicle;
    addToy(sys, "a").onInit([&](ToyComponent &me) {
        observed = me.sys()->currentCubicle();
        EXPECT_EQ(observed, me.self());
    });
    sys.boot();
    EXPECT_EQ(observed, 0);
}

TEST(SystemTest, ResolveAndCall)
{
    System sys(smallCfg());
    addToy(sys, "math").onExports([](Exporter &exp, ToyComponent &) {
        exp.fn<int(int, int)>("add",
                              [](int a, int b) { return a + b; });
    });
    addToy(sys, "app");
    sys.boot();

    auto add = sys.resolve<int(int, int)>("math", "add");
    int result = 0;
    sys.runAs(sys.cidOf("app"), [&] { result = add(2, 40); });
    EXPECT_EQ(result, 42);
}

TEST(SystemTest, ResolveUnknownSymbolThrows)
{
    System sys(smallCfg());
    addToy(sys, "math").onExports([](Exporter &exp, ToyComponent &) {
        exp.fn<int()>("f", [] { return 1; });
    });
    sys.boot();
    EXPECT_THROW((sys.resolve<int()>("math", "g")), LinkError);
}

TEST(SystemTest, ResolveSignatureMismatchThrows)
{
    // The builder parses the function definition to generate a matching
    // trampoline; calling with the wrong ABI is refused at link time.
    System sys(smallCfg());
    addToy(sys, "math").onExports([](Exporter &exp, ToyComponent &) {
        exp.fn<int(int, int)>("add",
                              [](int a, int b) { return a + b; });
    });
    sys.boot();
    EXPECT_THROW((sys.resolve<double(double)>("math", "add")), LinkError);
}

TEST(SystemTest, ResolveBeforeBootThrows)
{
    System sys(smallCfg());
    addToy(sys, "math");
    EXPECT_THROW((sys.resolve<int()>("math", "f")), LinkError);
}

TEST(SystemTest, CrossCallSwitchesCurrentCubicle)
{
    System sys(smallCfg());
    Cid seen_inside = kNoCubicle;
    addToy(sys, "srv").onExports(
        [&seen_inside](Exporter &exp, ToyComponent &me) {
            exp.fn<void()>("probe", [&seen_inside, &me] {
                seen_inside = me.sys()->currentCubicle();
            });
        });
    addToy(sys, "app");
    sys.boot();
    auto probe = sys.resolve<void()>("srv", "probe");
    sys.runAs(sys.cidOf("app"), [&] {
        probe();
        // After return the caller's cubicle is restored.
        EXPECT_EQ(sys.currentCubicle(), sys.cidOf("app"));
    });
    EXPECT_EQ(seen_inside, sys.cidOf("srv"));
}

TEST(SystemTest, CrossCallCountsEdges)
{
    System sys(smallCfg());
    addToy(sys, "srv").onExports([](Exporter &exp, ToyComponent &) {
        exp.fn<void()>("noop", [] {});
    });
    addToy(sys, "app");
    sys.boot();
    auto noop = sys.resolve<void()>("srv", "noop");
    const Cid app = sys.cidOf("app");
    const Cid srv = sys.cidOf("srv");
    sys.runAs(app, [&] {
        for (int i = 0; i < 17; ++i)
            noop();
    });
    EXPECT_EQ(sys.stats().callsOnEdge(app, srv), 17u);
    EXPECT_EQ(sys.stats().callsOnEdge(srv, app), 0u);
}

TEST(SystemTest, NestedCrossCallsRestoreInOrder)
{
    System sys(smallCfg());
    addToy(sys, "inner").onExports([](Exporter &exp, ToyComponent &me) {
        exp.fn<Cid()>("who",
                      [&me] { return me.sys()->currentCubicle(); });
    });
    addToy(sys, "outer");
    addToy(sys, "app");
    sys.boot();
    auto who = sys.resolve<Cid()>("inner", "who");

    // Register a late-bound chain: app -> outer -> inner.
    ToyComponent &outer =
        static_cast<ToyComponent &>(sys.componentAt(sys.cidOf("outer")));
    (void)outer;
    sys.runAs(sys.cidOf("app"), [&] {
        sys.runAs(sys.cidOf("outer"), [&] {
            EXPECT_EQ(who(), sys.cidOf("inner"));
            EXPECT_EQ(sys.currentCubicle(), sys.cidOf("outer"));
        });
        EXPECT_EQ(sys.currentCubicle(), sys.cidOf("app"));
    });
}

// caller() names the cubicle a call acts for: the one that crossed
// into the callee, the shared cubicle when a colocated component calls
// its host without crossing, and the current cubicle in Unikraft mode,
// where no call crosses.
TEST(SystemTest, CallerNamesTheCubicleACallActsFor)
{
    for (const IsolationMode mode :
         {IsolationMode::kFull, IsolationMode::kUnikraft}) {
        System sys(smallCfg(mode));
        CrossFn<Cid()> whoCalled;
        addToy(sys, "srv").onExports([](Exporter &exp, ToyComponent &me) {
            exp.fn<Cid()>("who_called",
                          [&me] { return me.sys()->caller(); });
        });
        for (const char *relay : {"mid", "co"}) {
            ToyComponent &toy = addToy(sys, relay).onExports(
                [&whoCalled](Exporter &exp, ToyComponent &) {
                    exp.fn<Cid()>("relay",
                                  [&whoCalled] { return whoCalled(); });
                });
            if (std::string(relay) == "co")
                toy.colocateWith("srv");
        }
        addToy(sys, "app");
        sys.boot();
        whoCalled = sys.resolve<Cid()>("srv", "who_called");
        auto viaMid = sys.resolve<Cid()>("mid", "relay");
        auto viaCo = sys.resolve<Cid()>("co", "relay");
        const Cid app = sys.cidOf("app");
        const Cid srv = sys.cidOf("srv");
        ASSERT_EQ(sys.cidOf("co"), srv);

        EXPECT_EQ(sys.caller(), kNoCubicle);
        sys.runAs(app, [&] {
            EXPECT_EQ(whoCalled(), app);
            if (mode == IsolationMode::kFull) {
                EXPECT_EQ(viaMid(), sys.cidOf("mid"));
                EXPECT_EQ(viaCo(), srv);
            } else {
                EXPECT_EQ(viaMid(), app);
                EXPECT_EQ(viaCo(), app);
            }
        });
    }
}

TEST(SystemTest, ExceptionsUnwindAcrossCubicles)
{
    System sys(smallCfg());
    addToy(sys, "srv").onExports([](Exporter &exp, ToyComponent &) {
        exp.fn<void()>("boom", [] { throw std::runtime_error("inner"); });
    });
    addToy(sys, "app");
    sys.boot();
    auto boom = sys.resolve<void()>("srv", "boom");
    sys.runAs(sys.cidOf("app"), [&] {
        EXPECT_THROW(boom(), std::runtime_error);
        // The trampoline guard restored the caller context.
        EXPECT_EQ(sys.currentCubicle(), sys.cidOf("app"));
    });
}

TEST(SystemTest, SharedCubicleCallsBypassTrampolines)
{
    System sys(smallCfg());
    addToy(sys, "libc", CubicleKind::kShared)
        .onExports([](Exporter &exp, ToyComponent &me) {
            exp.fn<Cid()>("whoami", [&me] {
                // Shared cubicles execute with the caller's privileges:
                // the current cubicle is still the caller.
                return me.sys()->currentCubicle();
            });
        });
    addToy(sys, "app");
    sys.boot();
    auto whoami = sys.resolve<Cid()>("libc", "whoami");
    const Cid app = sys.cidOf("app");
    Cid seen = kNoCubicle;
    uint64_t wrpkrus = 0;
    sys.runAs(app, [&] {
        const uint64_t w0 = sys.stats().wrpkrus();
        seen = whoami();
        wrpkrus = sys.stats().wrpkrus() - w0;
    });
    EXPECT_EQ(seen, app);
    // No cross-cubicle edge was recorded, and no PKRU write was made.
    EXPECT_EQ(sys.stats().callsOnEdge(app, sys.cidOf("libc")), 0u);
    EXPECT_EQ(wrpkrus, 0u);
}

TEST(SystemTest, WrpkruChargedPerCrossCallInMpkModes)
{
    System sys(smallCfg(IsolationMode::kFull));
    addToy(sys, "srv").onExports([](Exporter &exp, ToyComponent &) {
        exp.fn<void()>("noop", [] {});
    });
    addToy(sys, "app");
    sys.boot();
    auto noop = sys.resolve<void()>("srv", "noop");
    sys.stats().reset();
    const uint64_t cycles_before = sys.clock().read();
    sys.runAs(sys.cidOf("app"), [&] { noop(); });
    // runAs enter/exit + call/return = 4 switch points, 2 wrpkru each.
    EXPECT_EQ(sys.stats().wrpkrus(), 8u);
    EXPECT_GE(sys.clock().read() - cycles_before,
              8 * hw::cost::kWrpkru);
}

TEST(SystemTest, UnikraftModeChargesNothing)
{
    System sys(smallCfg(IsolationMode::kUnikraft));
    addToy(sys, "srv").onExports([](Exporter &exp, ToyComponent &) {
        exp.fn<void()>("noop", [] {});
    });
    addToy(sys, "app");
    sys.boot();
    auto noop = sys.resolve<void()>("srv", "noop");
    const uint64_t before = sys.clock().read();
    sys.runAs(sys.cidOf("app"), [&] { noop(); });
    EXPECT_EQ(sys.clock().read(), before);
    EXPECT_EQ(sys.stats().wrpkrus(), 0u);
}

TEST(SystemTest, PerThreadContextsAreIndependent)
{
    System sys(smallCfg());
    addToy(sys, "a");
    addToy(sys, "b");
    sys.boot();
    const Cid a = sys.cidOf("a");
    const Cid b = sys.cidOf("b");

    std::atomic<bool> ok_a{false}, ok_b{false};
    std::thread ta([&] {
        sys.runAs(a, [&] {
            for (int i = 0; i < 1000; ++i) {
                if (sys.currentCubicle() != a)
                    return;
            }
            ok_a = true;
        });
    });
    std::thread tb([&] {
        sys.runAs(b, [&] {
            for (int i = 0; i < 1000; ++i) {
                if (sys.currentCubicle() != b)
                    return;
            }
            ok_b = true;
        });
    });
    ta.join();
    tb.join();
    EXPECT_TRUE(ok_a);
    EXPECT_TRUE(ok_b);
}

TEST(SystemTest, TwoSystemsCoexistOnOneThread)
{
    System s1(smallCfg());
    System s2(smallCfg());
    addToy(s1, "x");
    addToy(s2, "y");
    s1.boot();
    s2.boot();
    s1.runAs(s1.cidOf("x"), [&] {
        EXPECT_EQ(s1.currentCubicle(), s1.cidOf("x"));
        s2.runAs(s2.cidOf("y"), [&] {
            EXPECT_EQ(s2.currentCubicle(), s2.cidOf("y"));
            EXPECT_EQ(s1.currentCubicle(), s1.cidOf("x"));
        });
    });
}

TEST(SystemTest, MemcpyCheckedMovesDataThroughWindows)
{
    System sys(smallCfg());
    addToy(sys, "src_comp");
    addToy(sys, "dst_comp").onExports(
        [](Exporter &exp, ToyComponent &me) {
            exp.fn<void(char *, const char *, std::size_t)>(
                "copy_in",
                [&me](char *dst, const char *src, std::size_t n) {
                    me.sys()->memcpyChecked(dst, src, n);
                });
        });
    sys.boot();
    const Cid src_c = sys.cidOf("src_comp");
    const Cid dst_c = sys.cidOf("dst_comp");

    char *src_buf = nullptr;
    sys.runAs(src_c, [&] {
        src_buf = static_cast<char *>(sys.heapAlloc(64));
        std::memcpy(src_buf, "hello-cubicle", 14);
    });
    char *dst_buf = nullptr;
    sys.runAs(dst_c, [&] {
        dst_buf = static_cast<char *>(sys.heapAlloc(64));
    });

    auto copy_in = sys.resolve<void(char *, const char *, std::size_t)>(
        "dst_comp", "copy_in");
    sys.runAs(src_c, [&] {
        Wid wid = sys.windowInit();
        sys.windowAdd(wid, src_buf, 64);
        sys.windowOpen(wid, dst_c);
        copy_in(dst_buf, src_buf, 14);
        sys.windowDestroy(wid);
    });
    EXPECT_STREQ(dst_buf, "hello-cubicle");
}

TEST(SystemTest, ModeNamesAreStable)
{
    EXPECT_STREQ(isolationModeName(IsolationMode::kUnikraft), "unikraft");
    EXPECT_STREQ(isolationModeName(IsolationMode::kFull), "cubicleos");
}

TEST(SystemTest, StatsResetClearsEverything)
{
    System sys(smallCfg());
    addToy(sys, "srv").onExports([](Exporter &exp, ToyComponent &) {
        exp.fn<void()>("noop", [] {});
    });
    addToy(sys, "app");
    sys.boot();
    auto noop = sys.resolve<void()>("srv", "noop");
    sys.runAs(sys.cidOf("app"), [&] { noop(); });
    EXPECT_GT(sys.stats().totalCalls(), 0u);
    sys.stats().reset();
    EXPECT_EQ(sys.stats().totalCalls(), 0u);
    EXPECT_EQ(sys.stats().wrpkrus(), 0u);
    EXPECT_TRUE(sys.stats().edges().empty());
}

/**
 * Mode sweep: cross-call cost ordering must satisfy
 * unikraft <= no-mpk <= no-acl == full (for call overhead alone).
 */
class ModeSweep : public ::testing::TestWithParam<IsolationMode> {};

TEST_P(ModeSweep, CallsWorkInEveryMode)
{
    System sys(smallCfg(GetParam()));
    addToy(sys, "srv").onExports([](Exporter &exp, ToyComponent &) {
        exp.fn<int(int)>("inc", [](int x) { return x + 1; });
    });
    addToy(sys, "app");
    sys.boot();
    auto inc = sys.resolve<int(int)>("srv", "inc");
    int v = 0;
    sys.runAs(sys.cidOf("app"), [&] {
        for (int i = 0; i < 100; ++i)
            v = inc(v);
    });
    EXPECT_EQ(v, 100);
}

INSTANTIATE_TEST_SUITE_P(AllModes, ModeSweep,
                         ::testing::Values(IsolationMode::kUnikraft,
                                           IsolationMode::kNoMpk,
                                           IsolationMode::kNoAcl,
                                           IsolationMode::kFull));

TEST(RangeRetag, OneFaultRetagsWholeWindowCoverage)
{
    SystemConfig cfg;
    cfg.numPages = 1024;
    System sys(cfg);
    addToy(sys, "owner");
    addToy(sys, "acc");
    sys.boot();
    const Cid owner = sys.cidOf("owner");
    const Cid acc = sys.cidOf("acc");

    constexpr std::size_t kPages = 8;
    char *buf = nullptr;
    sys.runAs(owner, [&] {
        buf = reinterpret_cast<char *>(
            sys.monitor()
                .allocPagesFor(owner, kPages, mem::PageType::kHeap)
                .ptr);
        const Wid wid = sys.windowInit();
        sys.windowAdd(wid, buf, kPages * hw::kPageSize);
        sys.windowOpen(wid, acc);
    });

    // One byte in the middle of the window: the trap's ACL decision
    // covers the whole window, so the grant does too — one trap, one
    // retag operation, all eight pages.
    const uint64_t traps0 = sys.stats().traps();
    const uint64_t retags0 = sys.stats().retags();
    const uint64_t pages0 = sys.stats().retagPages();
    sys.runAs(acc, [&] {
        sys.touch(buf + 3 * hw::kPageSize, 1, hw::Access::kRead);
    });
    EXPECT_EQ(sys.stats().traps(), traps0 + 1);
    EXPECT_EQ(sys.stats().retags(), retags0 + 1);
    EXPECT_EQ(sys.stats().retagPages(), pages0 + kPages);

    // Every other page of the window was granted by that one trap.
    sys.runAs(acc, [&] {
        sys.touch(buf, kPages * hw::kPageSize, hw::Access::kRead);
    });
    EXPECT_EQ(sys.stats().traps(), traps0 + 1);
}

TEST(RangeRetag, OwnerReclaimStopsAtDifferentlyTaggedPages)
{
    SystemConfig cfg;
    cfg.numPages = 1024;
    System sys(cfg);
    addToy(sys, "owner");
    addToy(sys, "a0");
    addToy(sys, "a1");
    sys.boot();
    const Cid owner = sys.cidOf("owner");
    const Cid a0 = sys.cidOf("a0");
    const Cid a1 = sys.cidOf("a1");

    // Two 2-page windows back to back, granted to different peers, so
    // the owner's reclaim run hits a tag boundary in the middle.
    char *buf = nullptr;
    sys.runAs(owner, [&] {
        buf = reinterpret_cast<char *>(
            sys.monitor()
                .allocPagesFor(owner, 4, mem::PageType::kHeap)
                .ptr);
        const Wid w0 = sys.windowInit();
        sys.windowAdd(w0, buf, 2 * hw::kPageSize);
        sys.windowOpen(w0, a0);
        const Wid w1 = sys.windowInit();
        sys.windowAdd(w1, buf + 2 * hw::kPageSize, 2 * hw::kPageSize);
        sys.windowOpen(w1, a1);
    });
    sys.runAs(a0, [&] { sys.touch(buf, 1, hw::Access::kRead); });
    sys.runAs(a1, [&] {
        sys.touch(buf + 2 * hw::kPageSize, 1, hw::Access::kRead);
    });

    // Owner reclaims page 0: the run extends over the pages still
    // carrying a0's tag (pages 0-1) and stops at a1's tag boundary.
    const uint64_t traps0 = sys.stats().traps();
    const uint64_t pages0 = sys.stats().retagPages();
    sys.runAs(owner, [&] { sys.touch(buf, 1, hw::Access::kWrite); });
    EXPECT_EQ(sys.stats().traps(), traps0 + 1);
    EXPECT_EQ(sys.stats().retagPages(), pages0 + 2);

    // Pages 2-3 still belong to a1's grant: no fault for a1.
    const uint64_t traps1 = sys.stats().traps();
    sys.runAs(a1, [&] {
        sys.touch(buf + 2 * hw::kPageSize, 2 * hw::kPageSize,
                  hw::Access::kRead);
    });
    EXPECT_EQ(sys.stats().traps(), traps1);
}

TEST(Prestage, EagerlyRetagsStagedRangeAndSkipsTaggedPages)
{
    SystemConfig cfg;
    cfg.numPages = 1024;
    System sys(cfg);
    addToy(sys, "owner");
    addToy(sys, "peer");
    addToy(sys, "stranger");
    sys.boot();
    const Cid owner = sys.cidOf("owner");
    const Cid peer = sys.cidOf("peer");
    const Cid stranger = sys.cidOf("stranger");

    constexpr std::size_t kPages = 4;
    char *buf = nullptr;
    Wid wid = kInvalidWindow;
    sys.runAs(owner, [&] {
        buf = reinterpret_cast<char *>(
            sys.monitor()
                .allocPagesFor(owner, kPages, mem::PageType::kHeap)
                .ptr);
        wid = sys.windowInit();
        sys.windowAdd(wid, buf, kPages * hw::kPageSize);
        sys.windowOpen(wid, peer);

        // The hint never widens rights: prestaging a cubicle outside
        // the ACL is refused, not granted.
        EXPECT_THROW(
            sys.windowPrestage(wid, stranger, hw::Access::kRead),
            WindowError);

        const uint64_t pre0 = sys.stats().prestages();
        EXPECT_EQ(sys.windowPrestage(wid, peer, hw::Access::kRead),
                  kPages);
        EXPECT_EQ(sys.stats().prestages(), pre0 + 1);
        // Idempotent: every page already carries the peer's tag.
        EXPECT_EQ(sys.windowPrestage(wid, peer, hw::Access::kRead),
                  0u);
        EXPECT_EQ(sys.stats().prestages(), pre0 + 1);
    });

    // The peer's first touch was prestaged away: no trap at all.
    const uint64_t traps0 = sys.stats().traps();
    sys.runAs(peer, [&] {
        sys.touch(buf, kPages * hw::kPageSize, hw::Access::kRead);
    });
    EXPECT_EQ(sys.stats().traps(), traps0);
}

TEST(Prestage, IsOneShotAcrossEviction)
{
    // A Prestage declaration is a one-shot retag, not standing state:
    // evicting the peer parks the prestaged pages, and its fault-back-in
    // restores only its own. The window's ACL still names the peer, so
    // its next read of the staged range traps the range over once
    // (DESIGN.md §14), and the read after that is trap-free.
    SystemConfig cfg;
    cfg.numPages = 1024;
    cfg.virtualizeTags = true;
    cfg.physTagBudget = 6; // monitor + shared + parked + 3-tag pool
    cfg.dynamicTags = 3;
    System sys(cfg);
    addToy(sys, "owner");
    addToy(sys, "peer").onExports([](Exporter &exp, ToyComponent &toy) {
        exp.fn<int64_t(const char *, int64_t)>(
            "sum", [&toy](const char *p, int64_t n) {
                toy.sys()->touch(p, static_cast<std::size_t>(n),
                                 hw::Access::kRead);
                int64_t acc = 0;
                for (int64_t i = 0; i < n; ++i)
                    acc += static_cast<unsigned char>(p[i]);
                return acc;
            });
    });
    for (int i = 0; i < 3; ++i) {
        addToy(sys, numbered("f", i))
            .onExports([](Exporter &exp, ToyComponent &) {
                exp.fn<int(int)>("ping", [](int x) { return x + 1; });
            });
    }
    sys.boot();
    const Cid owner = sys.cidOf("owner");
    const Cid peer = sys.cidOf("peer");
    auto sum = sys.resolve<int64_t(const char *, int64_t)>("peer", "sum");
    std::vector<CrossFn<int(int)>> fill;
    for (int i = 0; i < 3; ++i) {
        fill.push_back(
            sys.resolve<int(int)>(numbered("f", i), "ping"));
    }

    constexpr std::size_t kPages = 4;
    char *buf = nullptr;
    sys.runAs(owner, [&] {
        buf = reinterpret_cast<char *>(
            sys.monitor()
                .allocPagesFor(owner, kPages, mem::PageType::kHeap)
                .ptr);
        sys.touch(buf, kPages * hw::kPageSize, hw::Access::kWrite);
        std::memset(buf, 1, kPages * hw::kPageSize);
        const Wid wid = sys.windowInit();
        sys.windowAdd(wid, buf, kPages * hw::kPageSize);
        sys.windowOpen(wid, peer);
        sum(buf, 1); // bind the peer so the prestage sweeps for real
        // The range fault above already granted the staged range, so
        // the eager sweep may find nothing left to retag.
        sys.windowPrestage(wid, peer, hw::Access::kRead);
    });

    // Cycle every filler through the 3-tag dynamic pool: the peer is
    // evicted and its prestaged pages are swept to the parked tag.
    sys.runAs(owner, [&] {
        for (auto &f : fill)
            f(0);
    });
    const int parked = sys.monitor().parkedKey();
    ASSERT_EQ(sys.monitor().cubicle(peer).pkey, parked);
    const std::size_t page = sys.monitor().space().pageIndexOf(buf);
    ASSERT_EQ(sys.monitor().space().entryAt(page).pkey,
              static_cast<uint8_t>(parked));

    // Fault back in via the cross-call: noteSwitch re-binds the peer,
    // and its read of the whole staged range is one range-granular
    // trap through the window.
    const uint64_t traps0 = sys.stats().traps();
    const uint64_t faultins0 = sys.stats().faultIns();
    const auto bytes = static_cast<int64_t>(kPages * hw::kPageSize);
    int64_t got = 0;
    sys.runAs(owner, [&] { got = sum(buf, bytes); });
    EXPECT_EQ(got, bytes);
    EXPECT_GT(sys.stats().faultIns(), faultins0);
    EXPECT_EQ(sys.stats().traps(), traps0 + 1);

    const uint64_t traps1 = sys.stats().traps();
    sys.runAs(owner, [&] { got = sum(buf, bytes); });
    EXPECT_EQ(got, bytes);
    EXPECT_EQ(sys.stats().traps(), traps1);
}

/** An owner's 2-page buffer, staged and opened for @p peers. */
struct StagedBuffer {
    System sys{smallCfg()};
    Cid owner = kNoCubicle;
    char *buf = nullptr;
    Wid wid = kInvalidWindow;

    explicit StagedBuffer(std::initializer_list<const char *> peers)
    {
        addToy(sys, "owner");
        for (const char *name : peers)
            addToy(sys, name);
        addToy(sys, "stranger");
        sys.boot();
        owner = sys.cidOf("owner");
        sys.runAs(owner, [&] {
            buf = reinterpret_cast<char *>(
                sys.monitor()
                    .allocPagesFor(owner, 2, mem::PageType::kHeap)
                    .ptr);
            wid = sys.windowInit();
            sys.windowAdd(wid, buf, 2 * hw::kPageSize);
            for (const char *name : peers)
                sys.windowOpen(wid, sys.cidOf(name));
        });
    }

    std::vector<uint8_t> tags()
    {
        std::vector<uint8_t> t;
        for (std::size_t p = 0; p < sys.monitor().space().numPages(); ++p)
            t.push_back(sys.monitor().space().entryAt(p).pkey);
        return t;
    }

    uint8_t tagOfBuf()
    {
        const auto &space = sys.monitor().space();
        return space.entryAt(space.pageIndexOf(buf)).pkey;
    }
};

TEST(CheckAccess, RefusesOutsideEveryWindowAndMovesNoTag)
{
    StagedBuffer s({"peer"});
    const Cid stranger = s.sys.cidOf("stranger");
    const std::vector<uint8_t> before = s.tags();
    const uint64_t violations0 = s.sys.stats().violations();
    const uint64_t traps0 = s.sys.stats().traps();
    s.sys.runAs(stranger, [&] {
        EXPECT_THROW(s.sys.checkAccess(s.buf, 2 * hw::kPageSize,
                                       hw::Access::kRead),
                     hw::CubicleFault);
    });
    EXPECT_EQ(s.sys.stats().violations(), violations0 + 1);
    EXPECT_EQ(s.sys.stats().traps(), traps0);
    EXPECT_EQ(s.tags(), before);
    // A touch refuses the same access.
    s.sys.runAs(stranger, [&] {
        EXPECT_THROW(s.sys.touch(s.buf, 1, hw::Access::kRead),
                     hw::CubicleFault);
    });
}

TEST(CheckAccess, AdmitsInPlaceAndLeavesThePrestagedPeersTag)
{
    StagedBuffer s({"checker", "peer"});
    const Cid checker = s.sys.cidOf("checker");
    const Cid peer = s.sys.cidOf("peer");
    s.sys.runAs(s.owner, [&] {
        s.sys.windowPrestage(s.wid, peer, hw::Access::kWrite);
    });
    const uint8_t peer_tag = s.tagOfBuf();
    ASSERT_EQ(peer_tag, s.sys.monitor().cubicle(peer).pkey);

    const uint64_t traps0 = s.sys.stats().traps();
    const uint64_t hits0 = s.sys.stats().grantCacheHits();
    const uint64_t wrpkrus0 = s.sys.stats().wrpkrus();
    s.sys.runAs(checker, [&] {
        EXPECT_NO_THROW(s.sys.checkAccess(s.buf, 2 * hw::kPageSize,
                                          hw::Access::kWrite));
    });
    EXPECT_EQ(s.sys.stats().traps(), traps0);
    EXPECT_EQ(s.tagOfBuf(), peer_tag);
    // One monitor round trip on top of the runAs switch in and out.
    EXPECT_EQ(s.sys.stats().wrpkrus(), wrpkrus0 + 4 + 4);
    // The admission counts as exercised usage for the audit.
    for (const WindowWiring &w : s.sys.wiringSnapshot().windows) {
        if (w.wid == s.wid) {
            EXPECT_TRUE(w.usedWrite & aclBit(checker));
        }
    }
    // The peer writes without a trap; the checker's own touch still
    // traps, because the check cached no grant.
    s.sys.runAs(peer, [&] {
        s.sys.touch(s.buf, 2 * hw::kPageSize, hw::Access::kWrite);
    });
    EXPECT_EQ(s.sys.stats().traps(), traps0);
    s.sys.runAs(checker, [&] {
        s.sys.touch(s.buf, 1, hw::Access::kRead);
    });
    EXPECT_EQ(s.sys.stats().traps(), traps0 + 1);
    EXPECT_EQ(s.sys.stats().grantCacheHits(), hits0);
}

} // namespace
} // namespace cubicleos::core
