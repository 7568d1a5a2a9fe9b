/**
 * @file
 * Integration test for the networked deployment (paper Fig. 5): a
 * host-side TCP client talks through the FrameChannel wire to the
 * NETDEV + LWIP cubicles, with an echo application on top.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "libos/app.h"
#include "libos/netdev.h"
#include "libos/sockapi.h"
#include "libos/stack.h"
#include "libos/tcpip.h"

namespace cubicleos::libos {
namespace {

class NetStackTest : public ::testing::Test {
  protected:
    /** Boots one app, or with @p second_app a second one, "b". */
    void boot(bool second_app = false)
    {
        core::SystemConfig cfg;
        cfg.numPages = 8192;
        sys = std::make_unique<core::System>(cfg);
        wire = std::make_unique<FrameChannel>(&sys->clock());

        StackOptions opts;
        opts.withNet = true;
        opts.wire = wire.get();
        addLibosComponents(*sys, opts);
        app = static_cast<AppComponent *>(
            &sys->addComponent(std::make_unique<AppComponent>()));
        if (second_app) {
            other = static_cast<AppComponent *>(&sys->addComponent(
                std::make_unique<AppComponent>("b")));
        }
        finishBoot(*sys);

        app->run([&] {
            sock = std::make_unique<CubicleSockApi>(*sys);
        });
        if (other) {
            other->run([&] {
                otherSock = std::make_unique<CubicleSockApi>(*sys);
            });
        }

        TcpConfig ccfg;
        ccfg.ipAddr = 0x0A000002; // client 10.0.0.2
        client = std::make_unique<TcpIpStack>(ccfg);
    }

    void TearDown() override
    {
        if (app && sock)
            app->run([&] { sock.reset(); });
        if (other && otherSock)
            other->run([&] { otherSock.reset(); });
    }

    /** One full pump round: client <-> wire <-> server cubicles. */
    void pump(int rounds = 50)
    {
        for (int i = 0; i < rounds; ++i) {
            now += 1'000'000;
            client->tick(now);
            client->pollOutput([&](const uint8_t *p, std::size_t n) {
                wire->hostSend(FrameChannel::Frame(p, p + n));
            });
            app->run([&] { sock->poll(now); });
            while (auto f = wire->hostRecv())
                client->input(f->data(), f->size());
        }
    }

    std::unique_ptr<core::System> sys;
    std::unique_ptr<FrameChannel> wire;
    AppComponent *app = nullptr;
    std::unique_ptr<CubicleSockApi> sock;
    AppComponent *other = nullptr; ///< the second app, "b"
    std::unique_ptr<CubicleSockApi> otherSock;
    std::unique_ptr<TcpIpStack> client;
    uint64_t now = 0;
};

TEST_F(NetStackTest, ClientConnectsToCubicleServer)
{
    boot();
    int listen_fd = -1;
    app->run([&] {
        listen_fd = sock->socket();
        ASSERT_EQ(sock->bind(listen_fd, 80), kNetOk);
        ASSERT_EQ(sock->listen(listen_fd, 8), kNetOk);
    });
    const int cfd = client->socket();
    ASSERT_EQ(client->connect(cfd, 0x0A000001, 80), kNetOk);
    pump();
    EXPECT_TRUE(client->isEstablished(cfd));
    int server_conn = -1;
    app->run([&] { server_conn = sock->accept(listen_fd); });
    EXPECT_GE(server_conn, 0);
}

TEST_F(NetStackTest, EchoThroughAllEightCubicles)
{
    boot();
    int listen_fd = -1;
    char *srv_buf = nullptr;
    app->run([&] {
        listen_fd = sock->socket();
        sock->bind(listen_fd, 7);
        sock->listen(listen_fd, 8);
        srv_buf = static_cast<char *>(sys->heapAlloc(4096));
    });

    const int cfd = client->socket();
    client->connect(cfd, 0x0A000001, 7);
    pump();

    const char kMsg[] = "echo through cubicles";
    client->send(cfd, kMsg, sizeof(kMsg));
    pump();

    // Server: accept, read, echo back (each op windowed).
    app->run([&] {
        const int conn = sock->accept(listen_fd);
        ASSERT_GE(conn, 0);
        const int64_t n = sock->recv(conn, srv_buf, 4096);
        ASSERT_EQ(n, static_cast<int64_t>(sizeof(kMsg)));
        EXPECT_EQ(sock->send(conn, srv_buf, sizeof(kMsg)),
                  static_cast<int64_t>(sizeof(kMsg)));
    });
    pump();

    char reply[64] = {};
    EXPECT_EQ(client->recv(cfd, reply, sizeof(reply)),
              static_cast<int64_t>(sizeof(kMsg)));
    EXPECT_STREQ(reply, kMsg);
}

TEST_F(NetStackTest, AnotherCubiclesSocketIsRefused)
{
    // The app accepts a connection; app b names that socket in a send,
    // a recv and a close, and the app's listener in an accept. One
    // LWIP serves both apps, so each call reaches the app's connection
    // unless LWIP checks who owns the fd.
    boot(/*second_app=*/true);
    int listen_fd = -1;
    char *srv_buf = nullptr;
    app->run([&] {
        listen_fd = sock->socket();
        ASSERT_EQ(sock->bind(listen_fd, 7), kNetOk);
        ASSERT_EQ(sock->listen(listen_fd, 8), kNetOk);
        srv_buf = static_cast<char *>(sys->heapAlloc(4096));
    });
    const int cfd = client->socket();
    ASSERT_EQ(client->connect(cfd, 0x0A000001, 7), kNetOk);
    pump();
    int conn = -1;
    app->run([&] { conn = sock->accept(listen_fd); });
    ASSERT_GE(conn, 0);

    const char kForged[] = "forged by b";
    const char kMsg[] = "for the owner";
    client->send(cfd, kMsg, sizeof(kMsg));
    pump();
    other->run([&] {
        char *b_buf = static_cast<char *>(sys->heapAlloc(4096));
        std::memcpy(b_buf, kForged, sizeof(kForged));
        EXPECT_EQ(otherSock->send(conn, b_buf, sizeof(kForged)), kNetBadFd);
        EXPECT_EQ(otherSock->recv(conn, b_buf, 4096), kNetBadFd);
        EXPECT_EQ(otherSock->close(conn), kNetBadFd);
        EXPECT_EQ(otherSock->accept(listen_fd), kNetBadFd);
    });

    // The owner's connection is intact: the client's bytes wait for
    // it, and nothing of b's reaches the client.
    app->run([&] {
        EXPECT_EQ(sock->recv(conn, srv_buf, 4096),
                  static_cast<int64_t>(sizeof(kMsg)));
        EXPECT_STREQ(srv_buf, kMsg);
    });
    pump();
    char reply[64] = {};
    EXPECT_EQ(client->recv(cfd, reply, sizeof(reply)), kNetAgain);
    EXPECT_TRUE(client->isEstablished(cfd));
}

TEST_F(NetStackTest, NginxDeploymentHasEightIsolatedCubicles)
{
    boot();
    int isolated = 0;
    for (core::Cid cid = 0;
         cid < static_cast<core::Cid>(sys->cubicleCount()); ++cid) {
        if (sys->monitor().cubicle(cid).isolated())
            ++isolated;
    }
    // PLAT, ALLOC, TIME, VFSCORE, RAMFS, NETDEV, LWIP, APP (+BOOT).
    EXPECT_EQ(isolated, 9);
}

TEST_F(NetStackTest, TrafficCrossesExpectedEdges)
{
    boot();
    int listen_fd = -1;
    app->run([&] {
        listen_fd = sock->socket();
        sock->bind(listen_fd, 80);
        sock->listen(listen_fd, 8);
    });
    sys->stats().reset();
    const int cfd = client->socket();
    client->connect(cfd, 0x0A000001, 80);
    pump(10);

    const auto app_cid = sys->cidOf("app");
    const auto lwip = sys->cidOf("lwip");
    const auto netdev = sys->cidOf("netdev");
    EXPECT_GT(sys->stats().callsOnEdge(app_cid, lwip), 0u);
    EXPECT_GT(sys->stats().callsOnEdge(lwip, netdev), 0u);
    EXPECT_EQ(sys->stats().callsOnEdge(app_cid, netdev), 0u)
        << "the app never talks to the driver directly";
}

TEST_F(NetStackTest, WireChargesLatency)
{
    boot();
    const uint64_t before = sys->clock().read();
    wire->hostSend(FrameChannel::Frame(100, 0x55));
    EXPECT_GT(sys->clock().read(), before);
    EXPECT_EQ(wire->framesCarried(), 1u);
    EXPECT_EQ(wire->bytesCarried(), 100u);
}

} // namespace
} // namespace cubicleos::libos
