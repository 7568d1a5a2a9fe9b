/**
 * @file
 * Zero-copy sendfile tests: the borrowed-span data path must produce
 * byte-identical responses to the classic pread+send path while
 * copying strictly fewer payload bytes — with ZERO copies between the
 * RAMFS block and the TCP segment.
 */

#include <gtest/gtest.h>

#include "apps/httpd/harness.h"

namespace cubicleos::httpd {
namespace {

constexpr std::size_t kPages = 32768;
constexpr uint64_t kBaseCycles = 1000;

/** Runs one fetch and returns the server-side copy-stat deltas. */
struct CopyDeltas {
    uint64_t copies;
    uint64_t copyBytes;
    uint64_t zcSegs;
    uint64_t zcBytes;
};

CopyDeltas
fetchDeltas(HttpHarness &h, const std::string &path, FetchResult *out)
{
    auto &st = h.sys().stats();
    const uint64_t c0 = st.dataCopies();
    const uint64_t b0 = st.dataCopyBytes();
    const uint64_t z0 = st.zeroCopySends();
    const uint64_t y0 = st.zeroCopyBytes();
    *out = h.fetch(path);
    return {st.dataCopies() - c0, st.dataCopyBytes() - b0,
            st.zeroCopySends() - z0, st.zeroCopyBytes() - y0};
}

TEST(HttpdSendfileTest, ByteIdenticalToCopyPath)
{
    HttpHarness copy(core::IsolationMode::kFull, kPages, kBaseCycles,
                     /*sendfile=*/false);
    HttpHarness zc(core::IsolationMode::kFull, kPages, kBaseCycles,
                   /*sendfile=*/true);
    // Same path ⇒ same deterministic contents in both deployments.
    copy.createFile("/page.html", 12345);
    zc.createFile("/page.html", 12345);

    const FetchResult a = copy.fetch("/page.html");
    const FetchResult b = zc.fetch("/page.html");
    EXPECT_EQ(a.status, 200);
    EXPECT_EQ(b.status, 200);
    ASSERT_EQ(a.bodyBytes, 12345u);
    ASSERT_EQ(b.bodyBytes, 12345u);
    EXPECT_TRUE(a.body == b.body) << "sendfile changed payload bytes";
}

TEST(HttpdSendfileTest, BodyBytesAreNeverCopied)
{
    constexpr std::size_t kFile = 64 * 1024;
    HttpHarness zc(core::IsolationMode::kFull, kPages, kBaseCycles,
                   /*sendfile=*/true);
    zc.createFile("/f.bin", kFile);

    FetchResult res;
    const CopyDeltas d = fetchDeltas(zc, "/f.bin", &res);
    ASSERT_EQ(res.status, 200);
    ASSERT_EQ(res.bodyBytes, kFile);

    // Every body byte went out as a zero-copy segment...
    EXPECT_GT(d.zcSegs, 0u);
    EXPECT_EQ(d.zcBytes, kFile);
    // ...and none of them was ever memcpy'd: the only copies left on
    // the request are the response header and request parsing, which
    // are far smaller than the payload.
    EXPECT_LT(d.copyBytes, 2048u)
        << "payload bytes leaked onto the copy path";
}

TEST(HttpdSendfileTest, StrictlyFewerCopiesPerRequestThanCopyPath)
{
    constexpr std::size_t kFile = 64 * 1024;
    HttpHarness copy(core::IsolationMode::kFull, kPages, kBaseCycles,
                     /*sendfile=*/false);
    HttpHarness zc(core::IsolationMode::kFull, kPages, kBaseCycles,
                   /*sendfile=*/true);
    copy.createFile("/f.bin", kFile);
    zc.createFile("/f.bin", kFile);

    FetchResult a, b;
    const CopyDeltas dCopy = fetchDeltas(copy, "/f.bin", &a);
    const CopyDeltas dZc = fetchDeltas(zc, "/f.bin", &b);
    ASSERT_EQ(a.bodyBytes, kFile);
    ASSERT_EQ(b.bodyBytes, kFile);
    EXPECT_TRUE(a.body == b.body);

    // The copy path pays ≥2 payload copies (block→app buffer,
    // app buffer→send queue); the span path pays none.
    EXPECT_LT(dZc.copies, dCopy.copies);
    EXPECT_LT(dZc.copyBytes, dCopy.copyBytes);
    EXPECT_GE(dCopy.copyBytes, 2 * kFile);
    EXPECT_EQ(dCopy.zcSegs, 0u);
}

TEST(HttpdSendfileTest, StreamsFileLargerThanSocketBuffers)
{
    // 256 KiB > the 64 KiB TCP buffers: the span queue hits kNetAgain
    // and must retry borrowed spans without re-borrowing, releasing
    // ACKed spans as the window reopens.
    constexpr std::size_t kFile = 256 * 1024;
    HttpHarness zc(core::IsolationMode::kFull, kPages, kBaseCycles,
                   /*sendfile=*/true);
    zc.createFile("/big.bin", kFile);

    FetchResult res;
    const CopyDeltas d = fetchDeltas(zc, "/big.bin", &res);
    EXPECT_EQ(res.status, 200);
    EXPECT_EQ(res.bodyBytes, kFile);
    EXPECT_EQ(d.zcBytes, kFile);
    EXPECT_LT(d.copyBytes, 2048u);
    EXPECT_EQ(zc.nginx().stats().requests, 1u);
}

TEST(HttpdSendfileTest, SequentialRequestsReuseBorrowMachinery)
{
    HttpHarness zc(core::IsolationMode::kFull, kPages, kBaseCycles,
                   /*sendfile=*/true);
    zc.createFile("/a", 5000);
    zc.createFile("/b", 9000);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(zc.fetch("/a").bodyBytes, 5000u);
        EXPECT_EQ(zc.fetch("/b").bodyBytes, 9000u);
    }
    EXPECT_EQ(zc.nginx().stats().requests, 6u);
    EXPECT_EQ(zc.nginx().stats().errors, 0u);
}

TEST(HttpdSendfileTest, StackDeathMidTransferDropsTheConnection)
{
    // Kill lwip while a 2 MB body is in flight: the reap and the span
    // send come back as kNetPeerFault, and the connection is dropped
    // with every borrowed span released.
    HttpHarness zc(core::IsolationMode::kFull, kPages, kBaseCycles,
                   /*sendfile=*/true);
    zc.createFile("/big", 2 << 20);
    zc.fetch("/big", 25); // abandoned client-side, mid-body
    const uint64_t errors0 = zc.nginx().stats().errors;

    zc.sys().destroyComponent("lwip");
    zc.pump(10);

    EXPECT_EQ(zc.nginx().stats().errors, errors0 + 1);
    EXPECT_EQ(zc.sys().stats().violations(), 0u);
    // A span still borrowed would make the file impossible to replace.
    EXPECT_NO_THROW(zc.createFile("/big", 4096));
}

TEST(HttpdSendfileTest, TopologyStaysWithinFigureFive)
{
    HttpHarness zc(core::IsolationMode::kFull, kPages, kBaseCycles,
                   /*sendfile=*/true);
    zc.createFile("/f", 64 * 1024);
    zc.sys().stats().reset();
    zc.fetch("/f");

    auto &sys = zc.sys();
    const auto nginx = sys.cidOf("nginx");
    const auto lwip = sys.cidOf("lwip");
    const auto vfs = sys.cidOf("vfscore");
    const auto ramfs = sys.cidOf("ramfs");
    const auto netdev = sys.cidOf("netdev");

    // Borrow/release flow through VFSCORE like every other file op:
    // the app still never talks to RAMFS or NETDEV directly.
    EXPECT_GT(sys.stats().callsOnEdge(nginx, vfs), 0u);
    EXPECT_GT(sys.stats().callsOnEdge(vfs, ramfs), 0u);
    EXPECT_EQ(sys.stats().callsOnEdge(nginx, ramfs), 0u);
    EXPECT_EQ(sys.stats().callsOnEdge(nginx, netdev), 0u);
    EXPECT_GT(sys.stats().callsOnEdge(nginx, lwip),
              sys.stats().callsOnEdge(nginx, vfs));
}

} // namespace
} // namespace cubicleos::httpd
