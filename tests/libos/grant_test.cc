/**
 * @file
 * Unit tests for the grant layer (PeerSet / GrantWindow / Grant /
 * XferArena) and the window-leak regression on the socket API.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "builder/image.h"
#include "libos/app.h"
#include "libos/grant.h"
#include "libos/sockapi.h"
#include "libos/stack.h"

namespace cubicleos::libos {
namespace {

TEST(PeerSetTest, AddIsIdempotent)
{
    PeerSet peers{1, 2};
    peers.add(1);
    peers.add(2);
    EXPECT_EQ(peers.size(), 2u);
    EXPECT_TRUE(peers.contains(1));
    EXPECT_TRUE(peers.contains(2));
    EXPECT_FALSE(peers.contains(3));
}

TEST(PeerSetTest, RejectsMoreThanMaxPeers)
{
    PeerSet peers{1, 2, 3, 4};
    EXPECT_THROW(peers.add(5), core::WindowError);
    peers.add(4); // still idempotent at capacity
    EXPECT_EQ(peers.size(), PeerSet::kMaxPeers);
}

class GrantTest : public ::testing::Test {
  protected:
    void SetUp() override
    {
        core::SystemConfig cfg;
        cfg.numPages = 8192;
        sys = std::make_unique<core::System>(cfg);
        addLibosComponents(*sys);
        app = static_cast<AppComponent *>(
            &sys->addComponent(std::make_unique<AppComponent>()));
        spy = static_cast<AppComponent *>(
            &sys->addComponent(std::make_unique<AppComponent>("spy")));
        finishBoot(*sys);
        vfsCid = sys->cidOf("vfscore");
        ramfsCid = sys->cidOf("ramfs");
        spyCid = sys->cidOf("spy");
    }

    bool faults(core::Cid cid, const void *p, std::size_t n)
    {
        bool faulted = false;
        sys->runAs(cid, [&] {
            try {
                sys->touch(p, n, hw::Access::kRead);
            } catch (const hw::CubicleFault &) {
                faulted = true;
            }
        });
        return faulted;
    }

    std::unique_ptr<core::System> sys;
    AppComponent *app = nullptr;
    AppComponent *spy = nullptr;
    core::Cid vfsCid = core::kNoCubicle;
    core::Cid ramfsCid = core::kNoCubicle;
    core::Cid spyCid = core::kNoCubicle;
};

TEST_F(GrantTest, NestedCallPeerSetOpensForEveryTraversedCubicle)
{
    char *buf = nullptr;
    GrantWindow win;
    Grant grant;
    app->run([&] {
        buf = static_cast<char *>(sys->heapAlloc(256));
        std::memset(buf, 0x5a, 256);
        const PeerSet peers{vfsCid, ramfsCid};
        win = GrantWindow(*sys, peers);
        grant = Grant(*sys, win, peers, buf, 256, hw::Access::kRead);
    });
    // §5.6: the call traverses VFSCORE and RAMFS; both may fault the
    // buffer in. A third party stays excluded.
    EXPECT_FALSE(faults(vfsCid, buf, 256));
    EXPECT_FALSE(faults(ramfsCid, buf, 256));
    EXPECT_TRUE(faults(spyCid, buf, 256));

    app->run([&] { grant.release(); });
    // Lazy revocation closed the ACL: nobody but the owner gets in.
    EXPECT_TRUE(faults(vfsCid, buf, 256));
    EXPECT_TRUE(faults(ramfsCid, buf, 256));
    app->run([&] { win.destroy(); });
}

TEST_F(GrantTest, HotWindowPoolingReusesStagedRange)
{
    char *a = nullptr;
    char *b = nullptr;
    GrantWindow win;
    app->run([&] {
        a = static_cast<char *>(sys->heapAlloc(4096));
        b = static_cast<char *>(sys->heapAlloc(4096));
        const PeerSet peers{vfsCid};
        win = GrantWindow(*sys, peers, /*hot=*/true);

        { Grant g(*sys, win, peers, a, 4096, hw::Access::kRead); }
        EXPECT_EQ(win.staged(), a);

        // Steady state on the same buffer: zero window operations.
        const uint64_t ops = sys->stats().windowOps();
        for (int i = 0; i < 10; ++i) {
            Grant g(*sys, win, peers, a, 4096, hw::Access::kRead);
        }
        EXPECT_EQ(sys->stats().windowOps(), ops);

        // Buffer changed: exactly one remove + one add.
        { Grant g(*sys, win, peers, b, 4096, hw::Access::kRead); }
        EXPECT_EQ(win.staged(), b);
        EXPECT_EQ(sys->stats().windowOps(), ops + 2);
    });
    // The hot ACL stays open across calls for the peer...
    EXPECT_FALSE(faults(vfsCid, b, 4096));
    // ...but never admits a third party.
    EXPECT_TRUE(faults(spyCid, b, 4096));
    app->run([&] { win.destroy(); });
}

TEST_F(GrantTest, GrantSkipsHostPrivateBuffers)
{
    app->run([&] {
        const PeerSet peers{vfsCid};
        GrantWindow win(*sys, peers);
        char host_buf[64]; // lives outside the simulated machine
        const uint64_t ops = sys->stats().windowOps();
        {
            Grant g(*sys, win, peers, host_buf, sizeof(host_buf),
                    hw::Access::kRead);
            EXPECT_FALSE(g.active());
        }
        EXPECT_EQ(sys->stats().windowOps(), ops);
    });
}

TEST_F(GrantTest, ThrowingCalleeLeavesNoOpenWindow)
{
    char *buf = nullptr;
    app->run([&] {
        buf = static_cast<char *>(sys->heapAlloc(128));
        const PeerSet peers{vfsCid};
        GrantWindow win(*sys, peers);
        try {
            Grant g(*sys, win, peers, buf, 128, hw::Access::kRead);
            throw std::runtime_error("callee failed mid-call");
        } catch (const std::runtime_error &) {
        }
        // The monitor sees no residual grant on this window.
        EXPECT_EQ(sys->monitor().windowAcl(win.id()), 0u);
    });
    EXPECT_TRUE(faults(vfsCid, buf, 128));
    EXPECT_TRUE(faults(spyCid, buf, 128));
}

TEST_F(GrantTest, ArenaStagingIsPageAlignedAndBounded)
{
    app->run([&] {
        const PeerSet peers{vfsCid};
        XferArena arena(*sys, 1, peers);
        ASSERT_TRUE(arena.valid());
        EXPECT_EQ(reinterpret_cast<uintptr_t>(arena.base()) %
                      hw::kPageSize,
                  0u)
            << "arena pages must not share a page with caller state";
        EXPECT_EQ(arena.size(), hw::kPageSize);

        void *p8 = arena.alloc(10, 8);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(p8) % 8, 0u);
        void *p64 = arena.alloc(1, 64);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(p64) % 64, 0u);
        EXPECT_GT(p64, p8);

        EXPECT_THROW(arena.at(arena.size()), core::WindowError);
        EXPECT_THROW(arena.alloc(2 * hw::kPageSize), core::OutOfMemory);
        arena.rewind();
        EXPECT_EQ(arena.alloc(16, 8), arena.base());

        arena.touchForWrite(0, 64);
        std::memset(arena.base(), 0x77, 64);
    });
}

TEST_F(GrantTest, ArenaWindowAdmitsPeersForItsLifetime)
{
    char *base = nullptr;
    XferArena arena;
    app->run([&] {
        const PeerSet peers{vfsCid, ramfsCid};
        arena = XferArena(*sys, 1, peers);
        base = arena.base();
        arena.touchForWrite(0, 64);
        std::memcpy(base, "/staged-path", 13);
    });
    EXPECT_FALSE(faults(vfsCid, base, 64));
    EXPECT_FALSE(faults(ramfsCid, base, 64));
    EXPECT_TRUE(faults(spyCid, base, 64));
    app->run([&] { arena = XferArena(); }); // destroys window + pages
}

// --- socket-API window-leak regression --------------------------------

/**
 * An "lwip" stand-in whose send always throws, reproducing the seed
 * bug: CubicleSockApi::send staged the caller's buffer and opened the
 * window before the cross-call, and the inline cleanup sequence never
 * ran when the callee threw — leaking an open window over application
 * memory.
 */
class ThrowingLwip : public core::Component {
  public:
    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = "lwip";
        s.kind = core::CubicleKind::kIsolated;
        s.image = builder::componentImage(builder::ImageSeed::kLwip);
        return s;
    }

    void registerExports(core::Exporter &exp) override
    {
        exp.fn<int()>("lwip_socket", [] { return 3; });
        exp.fn<int(int, uint16_t)>("lwip_bind",
                                   [](int, uint16_t) { return 0; });
        exp.fn<int(int, int)>("lwip_listen", [](int, int) { return 0; });
        exp.fn<int(int)>("lwip_accept", [](int) { return -11; });
        exp.fn<int(int, uint32_t, uint16_t)>(
            "lwip_connect", [](int, uint32_t, uint16_t) { return 0; });
        exp.fn<int64_t(int, const void *, std::size_t)>(
            "lwip_send",
            [](int, const void *, std::size_t) -> int64_t {
                throw std::runtime_error("lwip_send: injected failure");
            });
        exp.fn<int64_t(int, void *, std::size_t)>(
            "lwip_recv", [](int, void *, std::size_t) -> int64_t {
                throw std::runtime_error("lwip_recv: injected failure");
            });
        exp.fn<int(int)>("lwip_close", [](int) { return 0; });
        exp.fn<int(int)>("lwip_established", [](int) { return 1; });
        exp.fn<int(int)>("lwip_send_drained", [](int) { return 1; });
        exp.fn<int64_t(uint64_t)>("lwip_poll",
                                  [](uint64_t) -> int64_t { return 0; });
        exp.fn<int64_t(int, const void *, std::size_t)>(
            "lwip_sendz",
            [](int, const void *, std::size_t) -> int64_t { return 0; });
        exp.fn<int64_t(int)>("lwip_zc_done",
                             [](int) -> int64_t { return 0; });
    }
};

class SockApiLeakTest : public ::testing::Test {
  protected:
    void SetUp() override
    {
        core::SystemConfig cfg;
        cfg.numPages = 8192;
        sys = std::make_unique<core::System>(cfg);
        addLibosComponents(*sys);
        sys->addComponent(std::make_unique<ThrowingLwip>());
        app = static_cast<AppComponent *>(
            &sys->addComponent(std::make_unique<AppComponent>()));
        spy = static_cast<AppComponent *>(
            &sys->addComponent(std::make_unique<AppComponent>("spy")));
        finishBoot(*sys);
    }

    std::unique_ptr<core::System> sys;
    AppComponent *app = nullptr;
    AppComponent *spy = nullptr;
};

TEST_F(SockApiLeakTest, ThrowingCalleeLeavesNoLiveWindowOverBuffer)
{
    char *buf = nullptr;
    app->run([&] {
        CubicleSockApi sock(*sys);
        buf = static_cast<char *>(sys->heapAlloc(512));
        std::memset(buf, 0xab, 512);
        const int fd = sock.socket();
        EXPECT_THROW(sock.send(fd, buf, 512), std::runtime_error);
        EXPECT_THROW(sock.recv(fd, buf, 512), std::runtime_error);
        // The app still owns its buffer after the failed calls.
        sys->touch(buf, 512, hw::Access::kWrite);
        buf[0] = 'x';
    });
    // Neither LWIP nor anyone else retains access: the RAII grant
    // closed the window on the exception path.
    const core::Cid lwip = sys->cidOf("lwip");
    const core::Cid spyCid = sys->cidOf("spy");
    for (core::Cid cid : {lwip, spyCid}) {
        sys->runAs(cid, [&] {
            EXPECT_THROW(sys->touch(buf, 512, hw::Access::kRead),
                         hw::CubicleFault);
        });
    }
}

} // namespace
} // namespace cubicleos::libos
