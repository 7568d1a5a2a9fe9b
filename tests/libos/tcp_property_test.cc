/**
 * @file
 * TCP property tests: random send/recv sizes, random pump schedules
 * and random loss must never corrupt, reorder or drop delivered
 * bytes.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <memory>
#include <ostream>
#include <vector>

#include "hw/prng.h"
#include "libos/tcpip.h"

namespace cubicleos::libos {
namespace {

class TcpPropertyRig {
  public:
    TcpPropertyRig(uint64_t seed, std::size_t rcv_buf) : prng(seed)
    {
        TcpConfig a, b;
        a.ipAddr = 0x0A000001;
        b.ipAddr = 0x0A000002;
        a.rcvBuf = b.rcvBuf = rcv_buf;
        alice = std::make_unique<TcpIpStack>(a);
        bob = std::make_unique<TcpIpStack>(b);
    }

    /** One pump round; drops each frame with probability loss%. */
    void pump(int loss_percent)
    {
        now += 5'000'000; // 5 ms per round so RTO (200 ms) can fire
        alice->tick(now);
        bob->tick(now);
        alice->pollOutput([&](const uint8_t *p, std::size_t n) {
            if (prng.nextBelow(100) >= static_cast<uint64_t>(
                    loss_percent)) {
                bob->input(p, n);
            }
        });
        bob->pollOutput([&](const uint8_t *p, std::size_t n) {
            if (prng.nextBelow(100) >= static_cast<uint64_t>(
                    loss_percent)) {
                alice->input(p, n);
            }
        });
    }

    hw::Prng prng;
    std::unique_ptr<TcpIpStack> alice, bob;
    uint64_t now = 0;
};

/** One stream: PRNG seed, loss percentage and receive-buffer size. */
struct StreamCase {
    uint64_t seed;
    int loss;
    std::size_t rcvBuf = TcpConfig{}.rcvBuf;
};

/** Names a case "(seed, loss)", adding the buffer size when not default. */
void
PrintTo(const StreamCase &c, std::ostream *os)
{
    *os << '(' << c.seed << ", " << c.loss;
    if (c.rcvBuf != TcpConfig{}.rcvBuf)
        *os << ", rcvBuf " << c.rcvBuf;
    *os << ')';
}

class TcpStreamProperty : public ::testing::TestWithParam<StreamCase> {};

TEST_P(TcpStreamProperty, ByteStreamIsReliableAndOrdered)
{
    const auto [seed, loss, rcv_buf] = GetParam();
    TcpPropertyRig rig(seed, rcv_buf);

    const int lfd = rig.bob->socket();
    ASSERT_EQ(rig.bob->bind(lfd, 80), kNetOk);
    ASSERT_EQ(rig.bob->listen(lfd, 4), kNetOk);
    const int afd = rig.alice->socket();
    ASSERT_EQ(rig.alice->connect(afd, 0x0A000002, 80), kNetOk);

    int bfd = -1;
    for (int i = 0; i < 400 && bfd < 0; ++i) {
        rig.pump(loss);
        bfd = rig.bob->accept(lfd);
    }
    ASSERT_GE(bfd, 0) << "handshake failed under " << loss << "% loss";

    // Alice streams a pseudo-random byte sequence in random-size
    // chunks; Bob drains with random-size reads. Every byte must
    // arrive once, in order.
    constexpr std::size_t kTotal = 200'000;
    std::vector<uint8_t> out(kTotal);
    hw::Prng gen(seed ^ 0xABCD);
    for (auto &b : out)
        b = static_cast<uint8_t>(gen.next());

    std::size_t sent = 0, rcvd = 0;
    std::vector<uint8_t> in;
    in.reserve(kTotal);
    std::vector<uint8_t> buf(8192);
    int stall = 0;
    while (rcvd < kTotal && stall < 2000) {
        if (sent < kTotal && rig.prng.nextBelow(3) != 0) {
            const std::size_t chunk = std::min<std::size_t>(
                1 + rig.prng.nextBelow(6000), kTotal - sent);
            const int64_t n =
                rig.alice->send(afd, out.data() + sent, chunk);
            if (n > 0)
                sent += static_cast<std::size_t>(n);
        }
        rig.pump(loss);
        if (rig.prng.nextBelow(4) != 0) {
            const std::size_t want = 1 + rig.prng.nextBelow(8000);
            const int64_t n = rig.bob->recv(
                bfd, buf.data(), std::min(want, buf.size()));
            if (n > 0) {
                in.insert(in.end(), buf.begin(), buf.begin() + n);
                rcvd += static_cast<std::size_t>(n);
                stall = 0;
                continue;
            }
        }
        ++stall;
    }
    ASSERT_EQ(rcvd, kTotal) << "stalled under " << loss << "% loss";
    EXPECT_EQ(std::memcmp(in.data(), out.data(), kTotal), 0)
        << "byte stream corrupted";
    if (loss > 0) {
        EXPECT_GT(rig.alice->stats().retransmits, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndLoss, TcpStreamProperty,
                         ::testing::Values(StreamCase{1, 0},
                                           StreamCase{2, 0},
                                           StreamCase{3, 2},
                                           StreamCase{4, 5},
                                           StreamCase{5, 10}));

// A small, odd receive buffer: most appends and reads straddle the
// ring's wrap point (a 64 KiB ring wraps only a few times per stream).
INSTANTIATE_TEST_SUITE_P(SmallRing, TcpStreamProperty,
                         ::testing::Values(StreamCase{6, 0, 3001},
                                           StreamCase{7, 5, 3001}));

} // namespace
} // namespace cubicleos::libos
