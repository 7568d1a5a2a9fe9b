/**
 * @file
 * NGINX stand-in tests: end-to-end HTTP over the eight-cubicle
 * deployment, content integrity, error handling and edge topology.
 */

#include <gtest/gtest.h>

#include "apps/httpd/harness.h"

namespace cubicleos::httpd {
namespace {

class HttpdTest : public ::testing::Test {
  protected:
    // Small base cost so tests run fast; benches use the real value.
    HttpHarness harness{core::IsolationMode::kFull, 32768,
                        /*request_base_cycles=*/1000};
};

TEST_F(HttpdTest, ServesSmallFile)
{
    harness.createFile("/index.html", 512);
    const FetchResult res = harness.fetch("/index.html");
    EXPECT_EQ(res.status, 200);
    EXPECT_EQ(res.bodyBytes, 512u);
    EXPECT_EQ(harness.nginx().stats().requests, 1u);
}

TEST_F(HttpdTest, Returns404ForMissingFile)
{
    const FetchResult res = harness.fetch("/nope.html");
    EXPECT_EQ(res.status, 404);
    EXPECT_EQ(res.bodyBytes, 0u);
    EXPECT_EQ(harness.nginx().stats().errors, 1u);
}

TEST_F(HttpdTest, ServesFileLargerThanSocketBuffers)
{
    // 256 KiB > the 64 KiB TCP buffers: requires flow-controlled
    // streaming through every cubicle boundary.
    harness.createFile("/big.bin", 256 * 1024);
    const FetchResult res = harness.fetch("/big.bin");
    EXPECT_EQ(res.status, 200);
    EXPECT_EQ(res.bodyBytes, 256u * 1024);
}

TEST_F(HttpdTest, SequentialRequestsOnFreshConnections)
{
    harness.createFile("/a", 1000);
    harness.createFile("/b", 2000);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(harness.fetch("/a").bodyBytes, 1000u);
        EXPECT_EQ(harness.fetch("/b").bodyBytes, 2000u);
    }
    EXPECT_EQ(harness.nginx().stats().requests, 6u);
}

TEST_F(HttpdTest, EdgesMatchFigureFiveTopology)
{
    harness.createFile("/f", 64 * 1024);
    harness.sys().stats().reset();
    harness.fetch("/f");

    auto &sys = harness.sys();
    const auto nginx = sys.cidOf("nginx");
    const auto lwip = sys.cidOf("lwip");
    const auto netdev = sys.cidOf("netdev");
    const auto vfs = sys.cidOf("vfscore");
    const auto ramfs = sys.cidOf("ramfs");

    // Fig. 5: NGINX→LWIP is the hottest edge; LWIP→NETDEV carries the
    // packets; NGINX→VFSCORE→RAMFS carries the file; no layering
    // violations.
    EXPECT_GT(sys.stats().callsOnEdge(nginx, lwip), 0u);
    EXPECT_GT(sys.stats().callsOnEdge(lwip, netdev), 0u);
    EXPECT_GT(sys.stats().callsOnEdge(nginx, vfs), 0u);
    EXPECT_GT(sys.stats().callsOnEdge(vfs, ramfs), 0u);
    EXPECT_EQ(sys.stats().callsOnEdge(nginx, netdev), 0u);
    EXPECT_EQ(sys.stats().callsOnEdge(nginx, ramfs), 0u);
    EXPECT_GT(sys.stats().callsOnEdge(nginx, lwip),
              sys.stats().callsOnEdge(nginx, vfs))
        << "network edge dominates, as in Fig. 5";
}

TEST_F(HttpdTest, IsolationModesProduceSameBytes)
{
    for (auto mode : {core::IsolationMode::kUnikraft,
                      core::IsolationMode::kFull}) {
        HttpHarness h(mode, 32768, 1000);
        h.createFile("/data", 10000);
        const FetchResult res = h.fetch("/data");
        EXPECT_EQ(res.status, 200);
        EXPECT_EQ(res.bodyBytes, 10000u)
            << core::isolationModeName(mode);
    }
}

TEST_F(HttpdTest, CubicleOsCostsMoreThanUnikraft)
{
    HttpHarness uk(core::IsolationMode::kUnikraft, 32768, 0);
    HttpHarness cos(core::IsolationMode::kFull, 32768, 0);
    uk.createFile("/f", 128 * 1024);
    cos.createFile("/f", 128 * 1024);

    uk.sys().clock().reset();
    cos.sys().clock().reset();
    uk.fetch("/f");
    cos.fetch("/f");
    // The isolated run pays wrpkru/trap/retag cycles on top.
    EXPECT_GT(cos.sys().clock().read(), uk.sys().clock().read());
    EXPECT_GT(cos.sys().stats().retags(), 0u);
    EXPECT_EQ(uk.sys().stats().retags(), 0u);
}

TEST(HttpdTenantsTest, WarmBurstTakesNoTraps)
{
    // 26 tenant groups on 16 tags: the keys left for hot windows go to
    // lwip's netdev window and tenant0's staging page, so every other
    // tenant's paths cross in a per-call grant. Prestaged for RAMFS,
    // checked by VFSCORE and handed home, they take no trap; nor does
    // anything else a warm request does.
    constexpr int kTenants = 26;
    HttpHarness h(core::IsolationMode::kFull, 65536,
                  /*request_base_cycles=*/1000, /*sendfile=*/false,
                  kTenants);
    const char *files[] = {"/small", "/large"};
    for (int t = 0; t < kTenants; ++t) {
        h.createFile(t, files[0], 1024);
        h.createFile(t, files[1], 16 * 1024);
        for (const char *f : files)
            ASSERT_EQ(h.fetch(t, f).status, 200) << "warm-up";
    }
    h.sys().stats().reset();
    int requests = 0;
    for (int t = 0; t < kTenants; ++t) {
        for (int i = 0; i < 3; ++i, ++requests)
            ASSERT_EQ(h.fetch(t, files[i % 2]).status, 200);
    }
    EXPECT_EQ(h.sys().stats().traps(), 0u)
        << static_cast<double>(h.sys().stats().traps()) / requests
        << " traps per request";
}

} // namespace
} // namespace cubicleos::httpd
