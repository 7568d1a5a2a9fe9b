/**
 * @file
 * Unit tests for the grant layer (PeerSet / GrantWindow / Grant) and
 * the window-leak regression on the socket API.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

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
        grant = Grant(*sys, win, peers, buf, 256);
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

        { Grant g(*sys, win, peers, a, 4096); }
        EXPECT_EQ(win.staged(), a);

        // Steady state on the same buffer: zero window operations.
        const uint64_t ops = sys->stats().windowOps();
        for (int i = 0; i < 10; ++i) {
            Grant g(*sys, win, peers, a, 4096);
        }
        EXPECT_EQ(sys->stats().windowOps(), ops);

        // Buffer changed: exactly one remove + one add.
        { Grant g(*sys, win, peers, b, 4096); }
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
            Grant g(*sys, win, peers, host_buf, sizeof(host_buf));
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
            Grant g(*sys, win, peers, buf, 128);
            throw std::runtime_error("callee failed mid-call");
        } catch (const std::runtime_error &) {
        }
        // The monitor sees no residual grant on this window.
        EXPECT_EQ(sys->monitor().windowAcl(win.id()), 0u);
    });
    EXPECT_TRUE(faults(vfsCid, buf, 128));
    EXPECT_TRUE(faults(spyCid, buf, 128));
}

TEST_F(GrantTest, ReleaseHandsTheBufferHomeWithoutATrap)
{
    const core::Cid appCid = sys->cidOf("app");
    const mem::PageRange mine =
        sys->monitor().allocPagesFor(appCid, 1, mem::PageType::kHeap);
    const mem::PageRange theirs =
        sys->monitor().allocPagesFor(spyCid, 1, mem::PageType::kHeap);
    ASSERT_EQ(theirs.first, mine.first + 1) << "pages must be adjacent";
    const auto tagOf = [&](std::size_t page) {
        return sys->monitor().space().entryAt(page).pkey.load();
    };
    const auto keyOf = [&](core::Cid cid) {
        return static_cast<uint8_t>(sys->monitor().cubicle(cid).pkey);
    };

    GrantWindow win;
    Grant grant;
    app->run([&] {
        const PeerSet peers{vfsCid};
        win = GrantWindow(*sys, peers);
        // windowAdd validates only the first page: the staged range
        // runs on from the app's page into the spy's.
        grant = Grant(*sys, win, peers, mine.ptr, 2 * hw::kPageSize,
                      Prestage::kWrite);
    });
    EXPECT_EQ(tagOf(mine.first), keyOf(vfsCid));
    EXPECT_FALSE(faults(vfsCid, mine.ptr, hw::kPageSize));

    const uint64_t traps0 = sys->stats().traps();
    const uint64_t handBacks0 = sys->stats().handBacks();
    const uint64_t handBackPages0 = sys->stats().handBackPages();
    app->run([&] { grant.release(); });
    EXPECT_EQ(tagOf(mine.first), keyOf(appCid));
    EXPECT_EQ(tagOf(theirs.first), keyOf(spyCid));
    EXPECT_EQ(sys->stats().handBacks(), handBacks0 + 1);
    EXPECT_EQ(sys->stats().handBackPages(), handBackPages0 + 1);
    // The owner's next access takes no trap...
    app->run([&] {
        sys->touch(mine.ptr, hw::kPageSize, hw::Access::kWrite);
    });
    EXPECT_EQ(sys->stats().traps(), traps0);
    // ...and the callee's next touch faults.
    EXPECT_TRUE(faults(vfsCid, mine.ptr, hw::kPageSize));
    app->run([&] { win.destroy(); });
}

TEST_F(GrantTest, RefusedPeerLeavesNothingStaged)
{
    // The monitor refuses to open a window to a shared cubicle. The
    // Grant's constructor throws before the Grant exists, so no
    // destructor would undo its staging: the constructor must.
    char *buf = nullptr;
    GrantWindow win;
    const PeerSet peers{vfsCid, sys->cidOf("libc")};
    app->run([&] {
        buf = static_cast<char *>(sys->heapAlloc(128));
        win = GrantWindow(*sys, peers);
        EXPECT_THROW(Grant(*sys, win, peers, buf, 128), core::WindowError);
    });
    EXPECT_EQ(sys->monitor().windowAcl(win.id()), 0u);
    for (const core::WindowWiring &w : sys->wiringSnapshot().windows) {
        if (w.wid == win.id()) {
            EXPECT_EQ(w.rangeCount, 0u);
        }
    }
    EXPECT_TRUE(faults(vfsCid, buf, 128));
    app->run([&] { win.destroy(); });
}

// --- grant round trip under tag virtualisation ------------------------

/** A cubicle exporting "<name>_fill", which writes a granted buffer. */
class Writer : public core::Component {
  public:
    explicit Writer(std::string name) : name_(std::move(name)) {}

    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = name_;
        s.kind = core::CubicleKind::kIsolated;
        s.image = builder::componentImage(builder::ImageSeed::kApp);
        return s;
    }

    void registerExports(core::Exporter &exp) override
    {
        exp.fn<int64_t(char *, int64_t)>(
            name_ + "_fill", [this](char *p, int64_t n) {
                const auto len = static_cast<std::size_t>(n);
                sys()->touch(p, len, hw::Access::kWrite);
                std::memset(p, 0x5a, len);
                return n;
            });
    }

  private:
    std::string name_;
};

TEST(GrantVirtualTags, RoundTripLeavesNoPageOnAnotherCubiclesTag)
{
    // Every isolated cubicle shares a 3-tag dynamic pool (monitor,
    // shared and parked tags take the other three), so the calls
    // during the grant evict both the owner and the peer.
    core::SystemConfig cfg;
    cfg.numPages = 1024;
    cfg.virtualizeTags = true;
    cfg.physTagBudget = 6;
    cfg.dynamicTags = 3;
    core::System sys(cfg);
    auto &app = static_cast<AppComponent &>(
        sys.addComponent(std::make_unique<AppComponent>()));
    const char *names[] = {"peer", "f0", "f1", "f2"};
    for (const char *name : names)
        sys.addComponent(std::make_unique<Writer>(name));
    sys.boot();
    const core::Cid appCid = sys.cidOf("app");
    const core::Cid peer = sys.cidOf("peer");
    ASSERT_TRUE(sys.monitor().cubicle(appCid).dynamicTag())
        << "the owner must be dynamically tagged";

    constexpr std::size_t kBytes = 2 * hw::kPageSize;
    const mem::PageRange buf =
        sys.monitor().allocPagesFor(appCid, 2, mem::PageType::kHeap);
    char *p = reinterpret_cast<char *>(buf.ptr);
    std::vector<core::CrossFn<int64_t(char *, int64_t)>> fill;
    for (const char *name : names) {
        fill.push_back(sys.resolve<int64_t(char *, int64_t)>(
            name, std::string(name) + "_fill"));
    }
    char host_buf[8]; // outside the simulated machine
    app.run([&] {
        GrantWindow win(sys, PeerSet{peer});
        {
            Grant grant(sys, win, PeerSet{peer}, p, kBytes,
                        Prestage::kWrite);
            EXPECT_EQ(fill[0](p, kBytes), static_cast<int64_t>(kBytes));
            for (std::size_t i = 1; i < fill.size(); ++i)
                fill[i](host_buf, sizeof(host_buf));
        }
        const auto parked = static_cast<uint8_t>(sys.monitor().parkedKey());
        const auto key =
            static_cast<uint8_t>(sys.monitor().cubicle(appCid).pkey);
        EXPECT_NE(key, parked) << "the hand-back re-binds the owner";
        for (std::size_t pg = buf.first; pg < buf.first + 2; ++pg)
            EXPECT_EQ(sys.monitor().space().entryAt(pg).pkey, key);
        const uint64_t traps0 = sys.stats().traps();
        sys.touch(p, kBytes, hw::Access::kRead);
        EXPECT_EQ(sys.stats().traps(), traps0);
        EXPECT_EQ(static_cast<unsigned char>(p[kBytes - 1]), 0x5au);
    });
    sys.runAs(peer, [&] {
        EXPECT_THROW(sys.touch(p, 1, hw::Access::kRead), hw::CubicleFault);
    });
}

TEST(GrantVirtualTags, HotRequestWithoutAKeyBracketsLikeAColdWindow)
{
    // Tag virtualisation keeps a few keys back for hot windows and
    // degrades a hot request to an ordinary window once they are spent.
    // A Grant on such a window must then close, hand back and unstage
    // like on any cold window: nothing else revokes the grant.
    core::SystemConfig cfg;
    cfg.numPages = 1024;
    cfg.virtualizeTags = true;
    core::System sys(cfg);
    auto &app = static_cast<AppComponent &>(
        sys.addComponent(std::make_unique<AppComponent>()));
    sys.addComponent(std::make_unique<Writer>("peer"));
    sys.boot();
    const core::Cid appCid = sys.cidOf("app");
    const core::Cid peer = sys.cidOf("peer");
    auto fill = sys.resolve<int64_t(char *, int64_t)>("peer", "peer_fill");

    constexpr std::size_t kBytes = 2 * hw::kPageSize;
    const mem::PageRange buf =
        sys.monitor().allocPagesFor(appCid, 2, mem::PageType::kHeap);
    char *p = reinterpret_cast<char *>(buf.ptr);
    app.run([&] {
        // Spend every key the monitor has left.
        std::vector<GrantWindow> spent;
        for (int i = 0; i < hw::kNumPhysPkeys; ++i) {
            spent.emplace_back(sys, PeerSet{}, /*hot=*/true);
            if (!spent.back().hot())
                break;
        }
        GrantWindow win(sys, PeerSet{peer}, /*hot=*/true);
        EXPECT_FALSE(win.hot()) << "no key is left for this window";
        {
            Grant grant(sys, win, PeerSet{peer}, p, kBytes,
                        Prestage::kWrite);
            EXPECT_EQ(fill(p, kBytes), static_cast<int64_t>(kBytes));
        }
        EXPECT_EQ(sys.monitor().windowAcl(win.id()), 0u)
            << "the grant left the peer in the ACL";
        const uint64_t traps0 = sys.stats().traps();
        sys.touch(p, kBytes, hw::Access::kWrite);
        EXPECT_EQ(sys.stats().traps(), traps0)
            << "the buffer was not handed back";
        EXPECT_EQ(static_cast<unsigned char>(p[0]), 0x5au);
    });
    sys.runAs(peer, [&] {
        EXPECT_THROW(sys.touch(p, 1, hw::Access::kRead), hw::CubicleFault);
    });
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
