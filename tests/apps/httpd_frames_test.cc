/**
 * @file
 * Frame goldens for the Fig. 5 web deployment: exact counts of what
 * one request puts on the wire, read from the FrameChannel. Every
 * frame is also one crossing of the lwip → netdev edge, so a change
 * that sends one more bare ACK per request shows up here.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/httpd/harness.h"
#include "libos/lwip.h"

namespace cubicleos::httpd {
namespace {

constexpr uint8_t kFin = 0x01;
constexpr uint8_t kSyn = 0x02;
constexpr uint8_t kRst = 0x04;
constexpr uint8_t kPsh = 0x08;
constexpr uint8_t kAck = 0x10;

/** TCP flags of an IPv4 frame with no options. */
uint8_t
tcpFlags(const libos::FrameChannel::Frame &f)
{
    return f[33];
}

/** A deployment serving one file, with a tap on its wire. */
class HttpdFrames : public ::testing::Test {
  protected:
    explicit HttpdFrames(bool sendfile = false)
        : harness(core::IsolationMode::kFull, 32768,
                  /*request_base_cycles=*/1000, sendfile)
    {
        harness.wire().setTap(
            [this](bool to_device, const libos::FrameChannel::Frame &f) {
                flags.push_back(tcpFlags(f));
                payload.push_back(f.size() - 40);
                toDevice.push_back(to_device);
            });
    }

    /** Frames of one fetch of @p path; the body must arrive whole. */
    uint64_t framesOf(const std::string &path, std::size_t size)
    {
        const uint64_t before = harness.wire().framesCarried();
        const FetchResult res = harness.fetch(path);
        EXPECT_EQ(res.status, 200);
        EXPECT_EQ(res.bodyBytes, size);
        return harness.wire().framesCarried() - before;
    }

    uint64_t serverRetransmits()
    {
        auto &sys = harness.sys();
        return static_cast<libos::LwipComponent &>(
                   sys.componentAt(sys.cidOf("lwip")))
            .tcpStats()
            .retransmits;
    }

    HttpHarness harness;
    std::vector<uint8_t> flags;      ///< per frame, in wire order
    std::vector<std::size_t> payload; ///< TCP payload bytes per frame
    std::vector<bool> toDevice;      ///< client → server
};

TEST_F(HttpdFrames, OneKilobyteFetchIsSixFrames)
{
    harness.createFile("/f", 1024);
    ASSERT_EQ(framesOf("/f", 1024), 6u);
    // The handshake, the request, the whole response with the
    // server's FIN, the client's FIN carrying its ACK, and the server's
    // last ACK.
    const std::vector<uint8_t> want = {
        kSyn, kSyn | kAck, kAck | kPsh, kAck | kPsh | kFin,
        kFin | kAck, kAck};
    EXPECT_EQ(flags, want);
    const std::vector<bool> dir = {true, false, true, false, true, false};
    EXPECT_EQ(toDevice, dir);
    EXPECT_GT(payload[2], 0u);
    EXPECT_GT(payload[3], 1024u); // header and body in one segment
}

TEST_F(HttpdFrames, CopyPathFramesPerRequest)
{
    // Every fetch of a size costs the same frames; 300 fetches span
    // several retransmission timeouts (200 rounds), so a FIN left
    // unacknowledged would show up as extra frames in later requests.
    const std::vector<std::pair<std::size_t, uint64_t>> golden = {
        {1024, 6}, {4096, 8}, {16384, 18}};
    for (const auto &[size, frames] : golden) {
        const std::string path = "/f" + std::to_string(size);
        harness.createFile(path, size);
        for (int i = 0; i < 300; ++i)
            ASSERT_EQ(framesOf(path, size), frames) << size << " B, #" << i;
    }
    // Extra rounds past the last RTO: nothing is left to retransmit.
    harness.pump(400);
    EXPECT_EQ(serverRetransmits(), 0u);
    uint64_t rsts = 0;
    for (uint8_t f : flags)
        rsts += (f & kRst) != 0;
    EXPECT_EQ(rsts, 0u);
    EXPECT_EQ(flags.size(), 300u * (6 + 8 + 18));
}

class HttpdSendfileFrames : public HttpdFrames {
  protected:
    HttpdSendfileFrames() : HttpdFrames(/*sendfile=*/true) {}
};

TEST_F(HttpdSendfileFrames, TwoMegabyteRequestSendsFewerFrames)
{
    // 2 MB on the sendfile path: 1,437 full segments of body alone.
    // A request cost 1,671 frames before the sender stopped cutting
    // segments to slivers of window and ACKs were delayed.
    constexpr std::size_t kSize = 2 << 20;
    harness.createFile("/big", kSize);
    const uint64_t frames = framesOf("/big", kSize);
    EXPECT_LT(frames, 1671u);
    EXPECT_EQ(frames, 1607u);
    EXPECT_EQ(framesOf("/big", kSize), frames) << "the next request too";
    EXPECT_EQ(serverRetransmits(), 0u);
}

} // namespace
} // namespace cubicleos::httpd
