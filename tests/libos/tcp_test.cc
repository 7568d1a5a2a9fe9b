/**
 * @file
 * Unit tests for the TCP/IP stack (LWIP stand-in), run stand-alone with
 * two endpoints connected by direct packet exchange.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "libos/inet_checksum.h"
#include "libos/tcpip.h"

namespace cubicleos::libos {
namespace {

constexpr uint8_t kFinFlag = 0x01;
constexpr uint8_t kRstFlag = 0x04;
constexpr uint8_t kAckFlag = 0x10;

/** Big-endian 32-bit field at @p p. */
uint32_t
be32(const uint8_t *p)
{
    return (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) |
           (uint32_t{p[2]} << 8) | p[3];
}

/** The fields of one segment (no IP or TCP options) a test checks. */
struct Seg {
    uint8_t flags = 0;
    uint32_t seq = 0;
    uint32_t ack = 0;
    std::size_t len = 0; ///< payload bytes
};

Seg
parseSeg(const uint8_t *p, std::size_t n)
{
    return Seg{p[33], be32(p + 24), be32(p + 28), n - 40};
}

/** Two stacks wired back-to-back with manual pumping. */
class TcpPair : public ::testing::Test {
  protected:
    TcpPair()
    {
        TcpConfig a, b;
        a.ipAddr = 0x0A000001;
        b.ipAddr = 0x0A000002;
        alice = std::make_unique<TcpIpStack>(a);
        bob = std::make_unique<TcpIpStack>(b);
    }

    /** Moves packets both ways until quiescent. Returns iterations. */
    int pump(int max_rounds = 200)
    {
        int rounds = 0;
        bool moved = true;
        while (moved && rounds < max_rounds) {
            moved = false;
            alice->tick(now);
            bob->tick(now);
            alice->pollOutput([&](const uint8_t *p, std::size_t n) {
                rsts += (p[33] & kRstFlag) != 0;
                bob->input(p, n);
                moved = true;
            });
            bob->pollOutput([&](const uint8_t *p, std::size_t n) {
                rsts += (p[33] & kRstFlag) != 0;
                alice->input(p, n);
                moved = true;
            });
            now += 1'000'000; // 1 ms per round
            ++rounds;
        }
        return rounds;
    }

    /**
     * One pump round, as pump() runs it (both tick, then alice sends,
     * then bob): @return the segments each side sent.
     */
    std::pair<std::vector<Seg>, std::vector<Seg>> step()
    {
        std::pair<std::vector<Seg>, std::vector<Seg>> out;
        alice->tick(now);
        bob->tick(now);
        alice->pollOutput([&](const uint8_t *p, std::size_t n) {
            out.first.push_back(parseSeg(p, n));
            bob->input(p, n);
        });
        bob->pollOutput([&](const uint8_t *p, std::size_t n) {
            out.second.push_back(parseSeg(p, n));
            alice->input(p, n);
        });
        now += 1'000'000;
        return out;
    }

    /** Establishes bob:port listener and a connection from alice. */
    void establish(uint16_t port, int *afd, int *bfd)
    {
        const int lfd = bob->socket();
        ASSERT_EQ(bob->bind(lfd, port), kNetOk);
        ASSERT_EQ(bob->listen(lfd, 8), kNetOk);
        *afd = alice->socket();
        ASSERT_EQ(alice->connect(*afd, 0x0A000002, port), kNetOk);
        pump();
        *bfd = bob->accept(lfd);
        ASSERT_GE(*bfd, 0);
        EXPECT_TRUE(alice->isEstablished(*afd));
    }

    std::unique_ptr<TcpIpStack> alice, bob;
    uint64_t now = 0;
    int rsts = 0; ///< RST segments pump() carried
};

TEST_F(TcpPair, HandshakeEstablishesBothEnds)
{
    int afd, bfd;
    establish(8080, &afd, &bfd);
    EXPECT_TRUE(bob->isEstablished(bfd));
}

TEST_F(TcpPair, ConnectToClosedPortRefused)
{
    const int afd = alice->socket();
    ASSERT_EQ(alice->connect(afd, 0x0A000002, 9999), kNetOk);
    pump();
    char c;
    EXPECT_EQ(alice->recv(afd, &c, 1), kNetRefused);
    EXPECT_FALSE(alice->isEstablished(afd));
}

TEST_F(TcpPair, SmallDataBothDirections)
{
    int afd, bfd;
    establish(80, &afd, &bfd);

    EXPECT_EQ(alice->send(afd, "ping", 4), 4);
    pump();
    char buf[16] = {};
    EXPECT_EQ(bob->recv(bfd, buf, sizeof(buf)), 4);
    EXPECT_EQ(std::memcmp(buf, "ping", 4), 0);

    EXPECT_EQ(bob->send(bfd, "pong!", 5), 5);
    pump();
    EXPECT_EQ(alice->recv(afd, buf, sizeof(buf)), 5);
    EXPECT_EQ(std::memcmp(buf, "pong!", 5), 0);
}

TEST_F(TcpPair, RecvOnEmptyConnectionWouldBlock)
{
    int afd, bfd;
    establish(80, &afd, &bfd);
    char c;
    EXPECT_EQ(alice->recv(afd, &c, 1), kNetAgain);
}

TEST_F(TcpPair, LargeTransferRespectsWindow)
{
    int afd, bfd;
    establish(80, &afd, &bfd);

    // 1 MiB transfer: far larger than the 64 KiB buffers, so progress
    // requires repeated window updates (the Fig. 7 dynamic).
    constexpr std::size_t kTotal = 1 << 20;
    std::vector<uint8_t> out(kTotal);
    for (std::size_t i = 0; i < kTotal; ++i)
        out[i] = static_cast<uint8_t>(i * 13);

    std::size_t sent = 0, rcvd = 0;
    std::vector<uint8_t> in(kTotal);
    int idle = 0;
    while (rcvd < kTotal && idle < 100) {
        if (sent < kTotal) {
            const int64_t n =
                alice->send(afd, out.data() + sent, kTotal - sent);
            if (n > 0)
                sent += static_cast<std::size_t>(n);
        }
        pump(4);
        const int64_t n =
            bob->recv(bfd, in.data() + rcvd, kTotal - rcvd);
        if (n > 0) {
            rcvd += static_cast<std::size_t>(n);
            idle = 0;
        } else {
            ++idle;
        }
    }
    ASSERT_EQ(rcvd, kTotal);
    EXPECT_EQ(std::memcmp(in.data(), out.data(), kTotal), 0);
    // Segments must respect the MSS.
    EXPECT_GE(bob->stats().segsIn, kTotal / 1460);

    // Pinned counts: the schedule is deterministic, so these move only
    // when segmentation, window advertisement or copy accounting does.
    // Bob's segments are its ACKs and window updates: a receive buffer
    // advertising a different window changes that count.
    EXPECT_EQ(alice->stats().segsOut, 722u);
    EXPECT_EQ(alice->stats().payloadCopies, 737u);
    EXPECT_EQ(alice->stats().payloadCopyBytes, 2 * kTotal);
    EXPECT_EQ(bob->stats().segsIn, 722u);
    EXPECT_EQ(bob->stats().segsOut, 35u);
}

TEST_F(TcpPair, InOrderDataIsAckedInTheNextRound)
{
    int afd, bfd;
    establish(80, &afd, &bfd);

    // The round the data arrives in, bob holds its ACK back.
    ASSERT_EQ(alice->send(afd, "ping", 4), 4);
    auto [a_out, b_out] = step();
    ASSERT_EQ(a_out.size(), 1u);
    EXPECT_EQ(a_out[0].len, 4u);
    EXPECT_TRUE(b_out.empty());

    // No reply came, so the next round sends the bare ACK.
    std::tie(a_out, b_out) = step();
    EXPECT_TRUE(a_out.empty());
    ASSERT_EQ(b_out.size(), 1u);
    EXPECT_EQ(b_out[0].flags, kAckFlag);
    EXPECT_EQ(b_out[0].len, 0u);
    EXPECT_TRUE(alice->sendDrained(afd));

    // A reply queued in between carries the ACK instead.
    ASSERT_EQ(alice->send(afd, "ping", 4), 4);
    std::tie(a_out, b_out) = step();
    EXPECT_TRUE(b_out.empty());
    ASSERT_EQ(bob->send(bfd, "pong", 4), 4);
    std::tie(a_out, b_out) = step();
    ASSERT_EQ(b_out.size(), 1u);
    EXPECT_EQ(b_out[0].len, 4u);
    EXPECT_TRUE(alice->sendDrained(afd));

    // Draining the ring is a window update, due at the next round too.
    char buf[8];
    ASSERT_EQ(bob->recv(bfd, buf, sizeof(buf)), 8);
    bob->pollOutput([](const uint8_t *, std::size_t) {
        ADD_FAILURE() << "window update sent before the next tick";
    });
    std::tie(a_out, b_out) = step();
    ASSERT_EQ(b_out.size(), 1u);
    EXPECT_EQ(b_out[0].len, 0u);
}

TEST_F(TcpPair, FinRidesTheLastDataSegment)
{
    int afd, bfd;
    establish(80, &afd, &bfd);
    const std::vector<uint8_t> data(3000, 0x5a);
    ASSERT_EQ(alice->send(afd, data.data(), data.size()), 3000);
    ASSERT_EQ(alice->close(afd), kNetOk);

    // Drop the first flight: the go-back-N resend must rebuild it the
    // same way, FIN on the last data segment.
    alice->tick(now);
    std::vector<Seg> lost;
    alice->pollOutput([&](const uint8_t *p, std::size_t n) {
        lost.push_back(parseSeg(p, n));
    });
    now += 300'000'000;
    const auto [a_out, b_out] = step();
    for (const auto &flight : {lost, a_out}) {
        ASSERT_EQ(flight.size(), 3u);
        EXPECT_EQ(flight[0].len + flight[1].len + flight[2].len, 3000u);
        EXPECT_FALSE(flight[0].flags & kFinFlag);
        EXPECT_FALSE(flight[1].flags & kFinFlag);
        EXPECT_TRUE(flight[2].flags & kFinFlag);
    }
    EXPECT_EQ(alice->stats().retransmits, 1u);

    pump();
    char buf[4096];
    EXPECT_EQ(bob->recv(bfd, buf, sizeof(buf)), 3000);
    EXPECT_EQ(bob->recv(bfd, buf, sizeof(buf)), 0) << "EOF after FIN";
}

TEST_F(TcpPair, OutOfOrderDuplicateAndFinAreAckedAtOnce)
{
    int afd, bfd;
    establish(80, &afd, &bfd);
    const std::vector<uint8_t> data(2000, 0x33);
    ASSERT_EQ(alice->send(afd, data.data(), data.size()), 2000);
    std::vector<std::vector<uint8_t>> segs;
    alice->tick(now);
    alice->pollOutput([&](const uint8_t *p, std::size_t n) {
        segs.emplace_back(p, p + n);
    });
    ASSERT_EQ(segs.size(), 2u);
    const uint32_t seq0 = parseSeg(segs[0].data(), segs[0].size()).seq;

    // Delivers @p pkt to bob, then collects what bob sends in the same
    // round (no tick in between).
    auto deliver = [&](const std::vector<uint8_t> &pkt) {
        bob->input(pkt.data(), pkt.size());
        std::vector<Seg> out;
        bob->pollOutput([&](const uint8_t *p, std::size_t n) {
            out.push_back(parseSeg(p, n));
        });
        return out;
    };

    // In-order segments go in between; when their ACK goes out is
    // InOrderDataIsAckedInTheNextRound's business.
    auto out = deliver(segs[1]); // out of order: a duplicate ACK
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].ack, seq0);
    deliver(segs[0]);
    out = deliver(segs[0]); // duplicate
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].ack, seq0 + 1460);
    deliver(segs[1]);

    ASSERT_EQ(alice->close(afd), kNetOk);
    std::vector<uint8_t> fin;
    alice->pollOutput(
        [&](const uint8_t *p, std::size_t n) { fin.assign(p, p + n); });
    ASSERT_TRUE(parseSeg(fin.data(), fin.size()).flags & kFinFlag);
    out = deliver(fin);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].ack, seq0 + 2000 + 1);
}

TEST_F(TcpPair, TransferToASubMssReceiveBufferCompletes)
{
    // Bob's whole buffer is smaller than one segment, so every window
    // it offers is less than an MSS.
    TcpConfig small;
    small.ipAddr = 0x0A000002;
    small.rcvBuf = 1000;
    bob = std::make_unique<TcpIpStack>(small);
    int afd, bfd;
    establish(80, &afd, &bfd);

    constexpr std::size_t kTotal = 50'000;
    std::vector<uint8_t> out(kTotal);
    for (std::size_t i = 0; i < kTotal; ++i)
        out[i] = static_cast<uint8_t>(i * 7);
    std::vector<uint8_t> in(kTotal);
    std::size_t sent = 0, rcvd = 0;
    for (int i = 0; rcvd < kTotal && i < 1000; ++i) {
        if (sent < kTotal) {
            const int64_t n =
                alice->send(afd, out.data() + sent, kTotal - sent);
            if (n > 0)
                sent += static_cast<std::size_t>(n);
        }
        pump(4);
        // Uneven reads leave windows both above and below half the
        // buffer.
        const std::size_t want = i % 2 ? 300 : 700;
        const int64_t n = bob->recv(bfd, in.data() + rcvd,
                                    std::min(want, kTotal - rcvd));
        if (n > 0)
            rcvd += static_cast<std::size_t>(n);
    }
    ASSERT_EQ(rcvd, kTotal);
    EXPECT_EQ(std::memcmp(in.data(), out.data(), kTotal), 0);
    EXPECT_GE(bob->stats().segsIn, kTotal / small.rcvBuf);
}

TEST_F(TcpPair, ActiveCloserAcksThePeersFin)
{
    int afd, bfd;
    establish(80, &afd, &bfd);
    ASSERT_EQ(alice->close(afd), kNetOk);
    pump();
    char c;
    ASSERT_EQ(bob->recv(bfd, &c, 1), 0);
    ASSERT_EQ(bob->close(bfd), kNetOk);
    pump();

    // Past the RTO: an unacknowledged FIN would be retransmitted now,
    // and draw a RST from the side that has forgotten the connection.
    now += 300'000'000;
    pump();
    EXPECT_EQ(alice->stats().retransmits, 0u);
    EXPECT_EQ(bob->stats().retransmits, 0u);
    EXPECT_EQ(rsts, 0);
}

TEST_F(TcpPair, SenderBlockedByFullSendBuffer)
{
    int afd, bfd;
    establish(80, &afd, &bfd);
    std::vector<uint8_t> big(256 * 1024, 0x42);
    // Without pumping, at most sndBuf bytes can be queued.
    int64_t queued = alice->send(afd, big.data(), big.size());
    EXPECT_EQ(queued, static_cast<int64_t>(alice->config().sndBuf));
    EXPECT_EQ(alice->send(afd, big.data(), big.size()), kNetAgain);
}

TEST_F(TcpPair, OrderlyCloseDeliversEof)
{
    int afd, bfd;
    establish(80, &afd, &bfd);
    alice->send(afd, "bye", 3);
    alice->close(afd);
    pump();
    char buf[8];
    EXPECT_EQ(bob->recv(bfd, buf, sizeof(buf)), 3);
    EXPECT_EQ(bob->recv(bfd, buf, sizeof(buf)), 0) << "EOF after FIN";
    bob->close(bfd);
    pump();
}

TEST_F(TcpPair, ChecksumCorruptionDropsSegment)
{
    int afd, bfd;
    establish(80, &afd, &bfd);
    alice->send(afd, "data", 4);

    // Corrupt the first data segment in flight.
    bool corrupted = false;
    alice->tick(now);
    alice->pollOutput([&](const uint8_t *p, std::size_t n) {
        std::vector<uint8_t> pkt(p, p + n);
        if (!corrupted && n > 40) {
            pkt[40] ^= 0xFF; // flip the first payload byte
            corrupted = true;
        }
        bob->input(pkt.data(), pkt.size());
    });
    ASSERT_TRUE(corrupted);
    char buf[8];
    EXPECT_EQ(bob->recv(bfd, buf, sizeof(buf)), kNetAgain);
    EXPECT_GE(bob->stats().checksumDrops, 1u);

    // The retransmission timer recovers the loss.
    now += 300'000'000;
    pump();
    EXPECT_EQ(bob->recv(bfd, buf, sizeof(buf)), 4);
    EXPECT_GE(alice->stats().retransmits, 1u);
}

TEST_F(TcpPair, LostSynIsRetransmitted)
{
    const int lfd = bob->socket();
    bob->bind(lfd, 80);
    bob->listen(lfd, 8);
    const int afd = alice->socket();
    alice->connect(afd, 0x0A000002, 80);

    // Drop the first SYN on the floor.
    alice->pollOutput([](const uint8_t *, std::size_t) {});
    EXPECT_FALSE(alice->isEstablished(afd));

    now += 300'000'000; // beyond RTO
    pump();
    EXPECT_TRUE(alice->isEstablished(afd));
    EXPECT_GE(alice->stats().retransmits, 1u);
}

TEST_F(TcpPair, LostHandshakeAckIsRepeated)
{
    const int lfd = bob->socket();
    bob->bind(lfd, 80);
    bob->listen(lfd, 8);
    const int afd = alice->socket();
    alice->connect(afd, 0x0A000002, 80);

    // SYN and SYN-ACK arrive; alice's final ACK is lost.
    alice->pollOutput(
        [&](const uint8_t *p, std::size_t n) { bob->input(p, n); });
    bob->pollOutput(
        [&](const uint8_t *p, std::size_t n) { alice->input(p, n); });
    ASSERT_TRUE(alice->isEstablished(afd));
    alice->pollOutput([](const uint8_t *, std::size_t) {});

    // Bob retransmits its SYN-ACK; alice must acknowledge it again.
    now += 300'000'000; // beyond RTO
    pump();
    EXPECT_GE(bob->accept(lfd), 0);
    EXPECT_GE(bob->stats().retransmits, 1u);
}

TEST_F(TcpPair, LostFinAckIsRepeated)
{
    int afd, bfd;
    establish(80, &afd, &bfd);
    alice->close(afd);
    alice->pollOutput(
        [&](const uint8_t *p, std::size_t n) { bob->input(p, n); });
    bob->pollOutput([](const uint8_t *, std::size_t) {}); // ACK lost

    // Alice retransmits the FIN once; bob's fresh ACK ends the timer.
    now += 300'000'000;
    pump();
    EXPECT_EQ(alice->stats().retransmits, 1u);
    now += 300'000'000;
    pump();
    EXPECT_EQ(alice->stats().retransmits, 1u);
}

TEST_F(TcpPair, LostWindowUpdateIsRecoveredByAProbe)
{
    int afd, bfd;
    establish(80, &afd, &bfd);

    // Fill bob's receive buffer, so bob advertises a zero window.
    const std::size_t window = bob->config().rcvBuf;
    std::vector<uint8_t> fill(window, 0x11);
    ASSERT_EQ(alice->send(afd, fill.data(), fill.size()),
              static_cast<int64_t>(window));
    pump();
    ASSERT_TRUE(alice->sendDrained(afd));
    ASSERT_EQ(alice->send(afd, "tail", 4), 4);
    pump(); // nothing can move

    // Bob drains the buffer, but the update reopening it is lost.
    ASSERT_EQ(bob->recv(bfd, fill.data(), fill.size()),
              static_cast<int64_t>(window));
    bob->pollOutput([](const uint8_t *, std::size_t) {});

    // Alice's persist timer probes the window and the data follows.
    now += 300'000'000;
    pump();
    char buf[8];
    ASSERT_EQ(bob->recv(bfd, buf, sizeof(buf)), 4);
    EXPECT_EQ(std::memcmp(buf, "tail", 4), 0);
}

TEST_F(TcpPair, LostWindowUpdateAfterTheTickIsRecovered)
{
    // Bob's update is lost after his tick made it due, so only alice's
    // persist timer can recover: for a zero window, and for a 100-byte
    // one too small for alice to cut a segment to.
    for (const std::size_t left : {std::size_t{0}, std::size_t{100}}) {
        SCOPED_TRACE(left);
        alice = std::make_unique<TcpIpStack>(alice->config());
        bob = std::make_unique<TcpIpStack>(bob->config());
        int afd, bfd;
        establish(80, &afd, &bfd);

        // Leave bob @p left bytes of window; alice holds the next
        // 1,000 bytes back.
        const std::size_t fill = bob->config().rcvBuf - left;
        std::vector<uint8_t> bytes(fill, 0x22);
        ASSERT_EQ(alice->send(afd, bytes.data(), fill),
                  static_cast<int64_t>(fill));
        pump();
        ASSERT_TRUE(alice->sendDrained(afd));
        const std::vector<uint8_t> tail(1000, 0x44);
        ASSERT_EQ(alice->send(afd, tail.data(), tail.size()), 1000);
        pump();
        EXPECT_FALSE(alice->sendDrained(afd));

        ASSERT_EQ(bob->recv(bfd, bytes.data(), fill),
                  static_cast<int64_t>(fill));
        bob->tick(now);
        bob->pollOutput([](const uint8_t *, std::size_t) {});

        // Alice's persist timer lets one segment through, cut to the
        // window (one byte if it is zero); bob's ACK of it carries the
        // open window.
        now += 300'000'000;
        pump();
        std::vector<uint8_t> got(2000);
        ASSERT_EQ(bob->recv(bfd, got.data(), got.size()), 1000);
        got.resize(1000);
        EXPECT_EQ(got, tail);
    }
}

TEST_F(TcpPair, MultipleConcurrentConnections)
{
    const int lfd = bob->socket();
    bob->bind(lfd, 80);
    bob->listen(lfd, 16);

    constexpr int kConns = 8;
    int afds[kConns], bfds[kConns];
    for (int i = 0; i < kConns; ++i) {
        afds[i] = alice->socket();
        ASSERT_EQ(alice->connect(afds[i], 0x0A000002, 80), kNetOk);
    }
    pump();
    for (int i = 0; i < kConns; ++i) {
        bfds[i] = bob->accept(lfd);
        ASSERT_GE(bfds[i], 0) << i;
    }
    // Interleave traffic; streams must not cross.
    for (int i = 0; i < kConns; ++i) {
        const std::string msg = "conn-" + std::to_string(i);
        alice->send(afds[i], msg.data(), msg.size());
    }
    pump();
    for (int i = 0; i < kConns; ++i) {
        char buf[16] = {};
        const auto n = bob->recv(bfds[i], buf, sizeof(buf));
        EXPECT_EQ(std::string(buf, static_cast<std::size_t>(n)),
                  "conn-" + std::to_string(i));
    }
}

TEST_F(TcpPair, BindConflictRejected)
{
    const int a = bob->socket();
    const int b = bob->socket();
    EXPECT_EQ(bob->bind(a, 80), kNetOk);
    EXPECT_EQ(bob->listen(a, 4), kNetOk);
    EXPECT_EQ(bob->bind(b, 80), kNetInUse);
}

TEST_F(TcpPair, SendOnUnconnectedSocketFails)
{
    const int fd = alice->socket();
    EXPECT_EQ(alice->send(fd, "x", 1), kNetNotConn);
    EXPECT_EQ(alice->send(999, "x", 1), kNetBadFd);
}

/** Rewrites the IP header checksum of @p pkt after an edit. */
void
resumIp(std::vector<uint8_t> &pkt)
{
    pkt[10] = pkt[11] = 0;
    const uint16_t sum = inetChecksum(pkt.data(), 20);
    pkt[10] = static_cast<uint8_t>(sum >> 8);
    pkt[11] = static_cast<uint8_t>(sum & 0xFF);
}

/** Rewrites the TCP checksum of @p pkt (no IP options) after an edit. */
void
resumTcp(std::vector<uint8_t> &pkt)
{
    const std::size_t tcp_len = pkt.size() - 20;
    uint64_t pseudo = 6 + tcp_len; // protocol + TCP length
    for (std::size_t i = 12; i < 20; i += 2) // source and destination
        pseudo += (static_cast<uint64_t>(pkt[i]) << 8) | pkt[i + 1];
    pkt[36] = pkt[37] = 0;
    const uint16_t sum = inetChecksum(pkt.data() + 20, tcp_len, pseudo);
    pkt[36] = static_cast<uint8_t>(sum >> 8);
    pkt[37] = static_cast<uint8_t>(sum & 0xFF);
}

TEST_F(TcpPair, GarbageInputIsIgnored)
{
    std::vector<uint8_t> junk(64, 0xEE);
    alice->input(junk.data(), junk.size()); // no crash, no effect
    alice->input(junk.data(), 3);
    const auto &st = alice->stats();
    EXPECT_EQ(st.segsIn, 0u);

    // Packets whose IP checksum is valid but whose claimed lengths are
    // not must be dropped before any length is used.
    int afd, bfd;
    establish(80, &afd, &bfd);
    const std::string first = "first: 24 unread bytes..";
    ASSERT_EQ(alice->send(afd, first.data(), first.size()),
              static_cast<int64_t>(first.size()));
    pump(); // bob now holds these bytes unread

    // Capture alice's next data segment; it is in sequence for bob.
    const std::string second = "second: twenty bytes";
    ASSERT_EQ(alice->send(afd, second.data(), second.size()),
              static_cast<int64_t>(second.size()));
    std::vector<uint8_t> seg;
    alice->pollOutput(
        [&](const uint8_t *p, std::size_t n) { seg.assign(p, p + n); });
    ASSERT_EQ(seg.size(), 40 + second.size());

    std::vector<std::vector<uint8_t>> bad(5, seg);
    // Total length 0 and 30: shorter than the IP and TCP headers.
    bad[0][2] = bad[0][3] = 0;
    bad[1][2] = 0;
    bad[1][3] = 30;
    // IHL 6: an IP option the stack cannot parse.
    bad[2][0] = 0x46;
    // Data offset 0, below the TCP header, and 60 bytes, past the 40
    // the segment has.
    bad[3][32] = 0x00;
    bad[4][32] = 0xF0;
    resumTcp(bad[3]);
    resumTcp(bad[4]);

    const uint64_t segs_in = bob->stats().segsIn;
    for (auto &pkt : bad) {
        resumIp(pkt);
        bob->input(pkt.data(), pkt.size());
    }
    EXPECT_EQ(bob->stats().segsIn, segs_in);
    EXPECT_EQ(bob->stats().checksumDrops, 0u);

    // The real segment is retransmitted and the stream arrives intact.
    now += 300'000'000;
    pump();
    char buf[128];
    const int64_t n = bob->recv(bfd, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    EXPECT_EQ(std::string(buf, static_cast<std::size_t>(n)),
              first + second);
}

} // namespace
} // namespace cubicleos::libos
