/**
 * @file
 * Threat-model scenarios (paper §2.3, §6): attacks a malicious or
 * compromised component might attempt, and the guarantee that CubicleOS
 * blocks each one.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/system.h"
#include "tests/core/toy_components.h"

namespace cubicleos::core {
namespace {

using testing::ToyComponent;
using testing::addToy;

SystemConfig
cfg()
{
    SystemConfig c;
    c.numPages = 2048;
    return c;
}

/**
 * Scenario: a compromised file system tries to read TLS keys held by
 * another component (the CVE-2018-5410 motivation from the paper's
 * introduction).
 */
TEST(ThreatModel, CompromisedFsCannotStealKeys)
{
    System sys(cfg());
    char *secret = nullptr;

    addToy(sys, "tls").onInit([&](ToyComponent &me) {
        secret = static_cast<char *>(me.sys()->heapAlloc(32));
        std::memcpy(secret, "-----SECRET-KEY-----", 21);
    });
    addToy(sys, "evil_fs").onExports(
        [&](Exporter &exp, ToyComponent &me) {
            exp.fn<int()>("steal", [&me, &secret]() -> int {
                // The hostile component scans another cubicle's heap.
                me.sys()->touch(secret, 21, hw::Access::kRead);
                return secret[0];
            });
        });
    addToy(sys, "app");
    sys.boot();

    auto steal = sys.resolve<int()>("evil_fs", "steal");
    sys.runAs(sys.cidOf("app"), [&] {
        EXPECT_THROW(steal(), hw::CubicleFault);
    });
    EXPECT_GE(sys.stats().violations(), 1u);
    // The secret is intact.
    EXPECT_EQ(std::memcmp(secret, "-----SECRET-KEY-----", 21), 0);
}

/**
 * Scenario: a callee keeps a pointer from a legitimate window and tries
 * to use it after the caller closed the window and reclaimed the page.
 */
TEST(ThreatModel, DanglingWindowPointerBlockedAfterReclaim)
{
    System sys(cfg());
    addToy(sys, "srv").onExports([](Exporter &exp, ToyComponent &me) {
        static const char *stash = nullptr;
        exp.fn<void(const char *, std::size_t)>(
            "process", [&me](const char *p, std::size_t n) {
                me.sys()->touch(p, n, hw::Access::kRead);
                stash = p; // hostile: remember the pointer
            });
        exp.fn<int()>("replay", [&me]() -> int {
            me.sys()->touch(stash, 1, hw::Access::kRead);
            return stash[0];
        });
    });
    addToy(sys, "client");
    sys.boot();

    auto process =
        sys.resolve<void(const char *, std::size_t)>("srv", "process");
    auto replay = sys.resolve<int()>("srv", "replay");
    const Cid srv = sys.cidOf("srv");

    sys.runAs(sys.cidOf("client"), [&] {
        char *buf = static_cast<char *>(sys.heapAlloc(64));
        buf[0] = 9;
        Wid wid = sys.windowInit();
        sys.windowAdd(wid, buf, 64);
        sys.windowOpen(wid, srv);
        process(buf, 64);
        sys.windowClose(wid, srv);
        // Owner touches the page: lazily reclaims the tag.
        sys.touch(buf, 64, hw::Access::kWrite);
        // The stashed pointer is now useless to the server.
        EXPECT_THROW(replay(), hw::CubicleFault);
    });
}

/**
 * Scenario: component A opens a window for B; C (not in the ACL) tries
 * to piggy-back on it.
 */
TEST(ThreatModel, AclIsPerCubicle)
{
    System sys(cfg());
    addToy(sys, "a");
    addToy(sys, "b");
    addToy(sys, "c");
    sys.boot();
    const Cid a = sys.cidOf("a");
    const Cid b = sys.cidOf("b");
    const Cid c = sys.cidOf("c");

    char *buf = nullptr;
    sys.runAs(a, [&] {
        buf = static_cast<char *>(sys.heapAlloc(64));
        Wid wid = sys.windowInit();
        sys.windowAdd(wid, buf, 64);
        sys.windowOpen(wid, b);
    });
    sys.runAs(b, [&] {
        EXPECT_NO_THROW(sys.touch(buf, 64, hw::Access::kRead));
    });
    sys.runAs(c, [&] {
        EXPECT_THROW(sys.touch(buf, 64, hw::Access::kRead),
                     hw::CubicleFault);
    });
    (void)a;
}

/**
 * Scenario: the callee of a nested call tries to re-share data it was
 * granted through a window. Only the owner manages windows, so the
 * attempt is refused (§5.6 nested calls).
 */
TEST(ThreatModel, GranteeCannotReShareForeignMemory)
{
    System sys(cfg());
    addToy(sys, "owner");
    addToy(sys, "middleman");
    addToy(sys, "spy");
    sys.boot();
    const Cid owner = sys.cidOf("owner");
    const Cid mid = sys.cidOf("middleman");
    const Cid spy = sys.cidOf("spy");

    char *buf = nullptr;
    sys.runAs(owner, [&] {
        buf = static_cast<char *>(sys.heapAlloc(64));
        Wid wid = sys.windowInit();
        sys.windowAdd(wid, buf, 64);
        sys.windowOpen(wid, mid);
    });
    sys.runAs(mid, [&] {
        sys.touch(buf, 64, hw::Access::kRead); // legitimate
        Wid own_wid = sys.windowInit();
        // Re-sharing foreign memory is refused: not the owner.
        EXPECT_THROW(sys.windowAdd(own_wid, buf, 64), WindowError);
    });
    sys.runAs(spy, [&] {
        EXPECT_THROW(sys.touch(buf, 64, hw::Access::kRead),
                     hw::CubicleFault);
    });
}

/** Scenario: hostile component ships wrpkru in its binary. */
/**
 * Scenario: an owner grants a window to a shared cubicle. Its key is
 * in every cubicle's PKRU, so a page retagged to it (by its fault or a
 * prestage) would be readable by a third cubicle without a trap.
 */
TEST(ThreatModel, SharedCubicleIsNeverGrantedAWindow)
{
    System sys(cfg());
    addToy(sys, "owner");
    addToy(sys, "util", CubicleKind::kShared);
    addToy(sys, "third");
    sys.boot();
    const Cid util = sys.cidOf("util");
    char *buf = nullptr;
    Wid wid = kInvalidWindow;
    sys.runAs(sys.cidOf("owner"), [&] {
        buf = static_cast<char *>(sys.heapAlloc(64));
        std::memcpy(buf, "owner-private", 14);
        wid = sys.windowInit();
        sys.windowAdd(wid, buf, 64);
        EXPECT_THROW(sys.windowOpen(wid, util), WindowError);
        EXPECT_THROW(sys.windowPrestage(wid, util, hw::Access::kRead),
                     WindowError);
    });
    EXPECT_EQ(sys.monitor().windowAcl(wid), 0u);
    for (const Cid cid : {util, sys.cidOf("third")}) {
        sys.runAs(cid, [&] {
            EXPECT_THROW(sys.touch(buf, 14, hw::Access::kRead),
                         hw::CubicleFault);
        });
    }
}

/**
 * Scenario: an ACL bit names a cubicle id before anything loads there,
 * and a shared cubicle then takes that id. Neither its fault nor a
 * prestage may hand it the page.
 */
TEST(ThreatModel, GrantToAnIdLaterTakenBySharedCubicleHandsNothing)
{
    System sys(cfg());
    addToy(sys, "owner");
    addToy(sys, "third");
    sys.boot();
    const Cid owner = sys.cidOf("owner");
    const auto late = static_cast<Cid>(sys.cubicleCount());
    char *buf = nullptr;
    Wid wid = kInvalidWindow;
    sys.runAs(owner, [&] {
        buf = static_cast<char *>(sys.heapAlloc(64));
        wid = sys.windowInit();
        sys.windowAdd(wid, buf, 64);
        sys.windowOpen(wid, late);
    });
    ComponentSpec spec;
    spec.name = "late";
    spec.kind = CubicleKind::kShared;
    ASSERT_EQ(sys.monitor().loadComponent(spec), late);

    sys.runAs(owner, [&] {
        EXPECT_EQ(sys.windowPrestage(wid, late, hw::Access::kRead), 0u);
    });
    for (const Cid cid : {late, sys.cidOf("third")}) {
        sys.runAs(cid, [&] {
            EXPECT_THROW(sys.touch(buf, 1, hw::Access::kRead),
                         hw::CubicleFault);
        });
    }
}

TEST(ThreatModel, LoaderBlocksPkruTampering)
{
    System sys(cfg());
    std::vector<uint8_t> evil(4096, 0x90);
    // Hide the sequence deep in the image, across a cache line.
    evil[2047] = 0x0F;
    evil[2048] = 0x01;
    evil[2049] = 0xEF;
    addToy(sys, "rootkit").withImage(std::move(evil));
    EXPECT_THROW(sys.boot(), LoaderError);
}

/** Scenario: hostile component ships a raw syscall to call mprotect. */
TEST(ThreatModel, LoaderBlocksDirectSyscalls)
{
    System sys(cfg());
    std::vector<uint8_t> evil(4096, 0x90);
    evil[4094] = 0x0F;
    evil[4095] = 0x05;
    addToy(sys, "escapee").withImage(std::move(evil));
    EXPECT_THROW(sys.boot(), LoaderError);
}

/**
 * Scenario: code-injection attempt — a cubicle writes shellcode into
 * its heap and jumps to it. Data pages never carry execute permission
 * and cubicles cannot change execute permissions (§5.4 rule 1).
 */
TEST(ThreatModel, HeapIsNeverExecutable)
{
    System sys(cfg());
    addToy(sys, "app");
    sys.boot();
    sys.runAs(sys.cidOf("app"), [&] {
        auto *shellcode = static_cast<uint8_t *>(sys.heapAlloc(64));
        shellcode[0] = 0xC3; // ret
        EXPECT_THROW(sys.checkExec(shellcode), hw::CubicleFault);
    });
}

/**
 * Scenario: jumping into another cubicle's code without going through
 * a trampoline (CFI bypass attempt). The modified-MPK execute
 * semantics fault the fetch.
 */
TEST(ThreatModel, DirectCodeJumpAcrossCubiclesFaults)
{
    System sys(cfg());
    addToy(sys, "victim");
    addToy(sys, "attacker");
    sys.boot();
    const auto &victim_code =
        sys.monitor().cubicle(sys.cidOf("victim")).codeRange;
    sys.runAs(sys.cidOf("attacker"), [&] {
        EXPECT_THROW(sys.checkExec(victim_code.ptr), hw::CubicleFault);
        EXPECT_THROW(
            sys.checkExec(victim_code.ptr + 100), hw::CubicleFault);
    });
}

/**
 * Scenario: integrity of the window table itself — it lives in monitor
 * memory (key 0), unreachable from any cubicle.
 */
TEST(ThreatModel, MonitorKeyUnreachableFromCubicles)
{
    System sys(cfg());
    addToy(sys, "app");
    sys.boot();
    hw::Pkru pkru = sys.monitor().pkruFor(sys.cidOf("app"));
    EXPECT_FALSE(pkru.canRead(hw::Mpk::kMonitorKey));
    EXPECT_FALSE(pkru.canWrite(hw::Mpk::kMonitorKey));
}

/**
 * Scenario: window ranges are page-granular in enforcement; data on the
 * same page as a windowed buffer leaks to the grantee. The paper tells
 * developers to pad/align (Fig. 4's pad[4086]); verify both the hazard
 * and the remedy so the behaviour is documented by test.
 */
TEST(ThreatModel, PageGranularityHazardAndPaddingRemedy)
{
    System sys(cfg());
    addToy(sys, "a");
    addToy(sys, "b");
    sys.boot();
    const Cid a = sys.cidOf("a");
    const Cid b = sys.cidOf("b");

    char *shared_page = nullptr;
    char *secret_same_page = nullptr;
    char *secret_padded = nullptr;
    sys.runAs(a, [&] {
        StackFrame frame(sys);
        shared_page = static_cast<char *>(frame.allocPageAligned(64));
        secret_same_page = shared_page + 128; // same page!
        secret_padded =
            static_cast<char *>(frame.allocPageAligned(64)); // next page
        std::memcpy(secret_same_page, "on-page-secret", 15);
        std::memcpy(secret_padded, "padded-secret", 14);
        Wid wid = sys.windowInit();
        sys.windowAdd(wid, shared_page, 64);
        sys.windowOpen(wid, b);
    });
    sys.runAs(b, [&] {
        // Granted range: OK. Retag covers the whole page, so the
        // same-page secret is exposed (the documented hazard)...
        EXPECT_NO_THROW(sys.touch(shared_page, 64, hw::Access::kRead));
        EXPECT_NO_THROW(
            sys.touch(secret_same_page, 15, hw::Access::kRead));
        // ...but page-aligned padding keeps the secret safe.
        EXPECT_THROW(sys.touch(secret_padded, 14, hw::Access::kRead),
                     hw::CubicleFault);
    });
}

/**
 * Scenario: exhausting another cubicle's window table or heap is not
 * possible — windows are created by their owner only, and heaps are
 * per-cubicle.
 */
TEST(ThreatModel, ResourceSeparationBetweenCubicles)
{
    System sys(cfg());
    addToy(sys, "hog");
    addToy(sys, "victim");
    sys.boot();
    const Cid hog = sys.cidOf("hog");
    const Cid victim = sys.cidOf("victim");

    sys.runAs(hog, [&] {
        for (int i = 0; i < 100; ++i) {
            Wid w = sys.windowInit();
            (void)w;
        }
    });
    // Victim's own window numbering/managment is unaffected.
    sys.runAs(victim, [&] {
        Wid w = sys.windowInit();
        char *p = static_cast<char *>(sys.heapAlloc(32));
        sys.windowAdd(w, p, 32);
        sys.windowOpen(w, hog);
        sys.windowDestroy(w);
    });
}

} // namespace
} // namespace cubicleos::core
