/**
 * @file
 * Lifecycle subsystem tests (DESIGN.md §15): destroy semantics,
 * resource reclaim, parked-cubicle destroy, hot-restart through the
 * verify cache, and the crash-lab fault-injection scenarios (a cubicle
 * dies under a serving deployment and the rest keeps going).
 *
 * Threaded kill-mid-call scenarios live in lifecycle_stress_test.cc
 * (also under the `concurrency` label for the TSan preset).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/httpd/harness.h"
#include "baselines/crashlab.h"
#include "core/system.h"
#include "tests/core/toy_components.h"

namespace cubicleos::core {
namespace {

using testing::addToy;

SystemConfig
fullConfig()
{
    SystemConfig cfg;
    cfg.mode = IsolationMode::kFull;
    return cfg;
}

TEST(LifecycleTest, DestroyReclaimsAndRefusesEntry)
{
    System sys(fullConfig());
    addToy(sys, "alpha");
    addToy(sys, "beta").onExports([](Exporter &exp, auto &) {
        exp.fn<int(int)>("inc", [](int x) { return x + 1; });
    });
    sys.boot();

    auto inc = sys.resolve<int(int)>("beta", "inc");
    const Cid alpha = sys.cidOf("alpha");
    const Cid beta = sys.cidOf("beta");
    sys.runAs(alpha, [&] { EXPECT_EQ(inc(1), 2); });

    const uint64_t epoch0 = sys.monitor().windowEpoch();
    const std::size_t reclaimed = sys.destroyComponent("beta");

    EXPECT_GT(reclaimed, 0u);
    EXPECT_FALSE(sys.monitor().cubicleAlive(beta));
    EXPECT_EQ(sys.monitor().lifeState(beta), LifeState::kDead);
    EXPECT_EQ(sys.stats().destroys(), 1u);
    EXPECT_EQ(sys.stats().reclaimedPages(), reclaimed);
    // Revocation epoch bumped: no grant cache may touch freed pages.
    EXPECT_GT(sys.monitor().windowEpoch(), epoch0);

    // Cross-calls into the dead cubicle unwind instead of crashing.
    sys.runAs(alpha, [&] { EXPECT_THROW(inc(1), PeerFault); });
    EXPECT_GE(sys.stats().unwoundCalls(), 1u);

    // The rest of the deployment is untouched.
    EXPECT_TRUE(sys.monitor().cubicleAlive(alpha));
}

TEST(LifecycleTest, FailedLoadOrRestartReturnsItsPages)
{
    SystemConfig cfg = fullConfig();
    cfg.numPages = 256;
    System sys(cfg);
    Monitor &mon = sys.monitor();
    ComponentSpec huge;
    huge.name = "huge";
    huge.stackPages = 1000; // more than the whole space

    // Each load takes its MPK key, code and global pages before the
    // stack fails to fit; all of them must go back. Twenty loads are
    // more than the physical keys, so a leaked key shows up as a
    // LoaderError ("MPK keys exhausted").
    const std::size_t free0 = mon.freePageCount();
    const int keys0 = mon.mpk().remainingKeys();
    for (int i = 0; i < 20; ++i)
        EXPECT_THROW(mon.loadComponent(huge), OutOfMemory);
    EXPECT_EQ(mon.freePageCount(), free0);
    EXPECT_EQ(mon.mpk().remainingKeys(), keys0);
    EXPECT_EQ(sys.cubicleCount(), 0u);

    // A restart that cannot fit leaves the cubicle dead, with the free
    // pages unchanged, and a retry with the original spec succeeds.
    ComponentSpec spec;
    spec.name = "victim";
    const Cid cid = mon.loadComponent(spec);
    mon.destroyCubicle(cid);
    const std::size_t free1 = mon.freePageCount();
    ComponentSpec grown = spec;
    grown.stackPages = huge.stackPages;
    EXPECT_THROW(mon.restartCubicle(cid, grown), OutOfMemory);
    EXPECT_EQ(mon.freePageCount(), free1);
    EXPECT_EQ(mon.lifeState(cid), LifeState::kDead);
    mon.restartCubicle(cid, spec);
    EXPECT_EQ(mon.lifeState(cid), LifeState::kLive);
    EXPECT_LT(mon.freePageCount(), free1);
}

TEST(LifecycleTest, EmptyImageIsRefusedBeforeAnythingIsTaken)
{
    System sys(fullConfig());
    Monitor &mon = sys.monitor();
    ComponentSpec empty;
    empty.name = "empty";
    empty.image.clear();

    // The loader maps exactly the image it is handed and synthesises
    // none: an empty one is refused before a key or a page is taken.
    const std::size_t free0 = mon.freePageCount();
    const int keys0 = mon.mpk().remainingKeys();
    EXPECT_THROW(mon.loadComponent(empty), VerifierError);
    EXPECT_EQ(mon.freePageCount(), free0);
    EXPECT_EQ(mon.mpk().remainingKeys(), keys0);
    EXPECT_EQ(sys.cubicleCount(), 0u);

    // A spec left at its default image (one ret) takes one code page.
    ComponentSpec plain;
    plain.name = "plain";
    const Cid cid = mon.loadComponent(plain);
    EXPECT_EQ(mon.cubicle(cid).codeRange.count, 1u);

    // A restart refuses it too, and the cubicle stays dead.
    mon.destroyCubicle(cid);
    const std::size_t free1 = mon.freePageCount();
    EXPECT_THROW(mon.restartCubicle(cid, empty), VerifierError);
    EXPECT_EQ(mon.freePageCount(), free1);
    EXPECT_EQ(mon.lifeState(cid), LifeState::kDead);
}

TEST(LifecycleTest, SelfDestroyRefused)
{
    System sys(fullConfig());
    addToy(sys, "alpha");
    sys.boot();

    // The quiesce would wait on the calling thread forever.
    sys.runAs(sys.cidOf("alpha"), [&] {
        EXPECT_THROW(sys.destroyComponent("alpha"), LoaderError);
    });
    EXPECT_TRUE(sys.monitor().cubicleAlive(sys.cidOf("alpha")));
}

TEST(LifecycleTest, DestroyAndRestartErrors)
{
    System sys(fullConfig());
    addToy(sys, "alpha");
    addToy(sys, "beta");
    sys.boot();

    EXPECT_THROW(sys.destroyComponent("nosuch"), LinkError);
    // Restart requires a dead cubicle.
    EXPECT_THROW(sys.restartComponent("beta"), LoaderError);

    sys.destroyComponent("beta");
    // Double destroy: the cubicle is no longer live.
    EXPECT_THROW(sys.destroyComponent("beta"), LoaderError);
}

TEST(LifecycleTest, RestartRelaunchesThroughVerifyCache)
{
    System sys(fullConfig());
    addToy(sys, "alpha");
    addToy(sys, "beta").onExports([](Exporter &exp, auto &) {
        exp.fn<int(int)>("inc", [](int x) { return x + 1; });
    });
    sys.boot();

    auto inc = sys.resolve<int(int)>("beta", "inc");
    const Cid alpha = sys.cidOf("alpha");
    const Cid beta = sys.cidOf("beta");

    sys.destroyComponent("beta");
    const uint64_t hits0 = sys.stats().verifyCacheHits();
    sys.restartComponent("beta");

    EXPECT_TRUE(sys.monitor().cubicleAlive(beta));
    EXPECT_EQ(sys.monitor().lifeGeneration(beta), 1u);
    EXPECT_EQ(sys.stats().restarts(), 1u);
    // The content-identical image re-verifies through the cache, not
    // a full decoder run — the cheap half of hot-restart.
    EXPECT_GT(sys.stats().verifyCacheHits(), hits0);

    sys.runAs(alpha, [&] { EXPECT_EQ(inc(41), 42); });

    // A second cycle keeps counting generations.
    sys.destroyComponent("beta");
    sys.restartComponent("beta");
    EXPECT_EQ(sys.monitor().lifeGeneration(beta), 2u);
    sys.runAs(alpha, [&] { EXPECT_EQ(inc(1), 2); });
}

/**
 * Destroy returns pages a peer was granted to their owner's tag in
 * page runs: two adjacent granted pages cost one pkey_mprotect, and
 * Stats counts exactly the calls made.
 */
TEST(LifecycleTest, DestroyReturnsGrantedPagesInOneCountedRun)
{
    System sys(fullConfig());
    addToy(sys, "a");
    addToy(sys, "b");
    sys.boot();
    const Cid a = sys.cidOf("a");
    const Cid b = sys.cidOf("b");
    const mem::PageRange buf =
        sys.monitor().allocPagesFor(a, 2, mem::PageType::kHeap);
    ASSERT_TRUE(buf.valid());

    sys.runAs(a, [&] {
        const Wid wid = sys.windowInit();
        sys.windowAdd(wid, buf.ptr, 2 * hw::kPageSize);
        sys.windowOpen(wid, b);
    });
    sys.runAs(b, [&] {
        sys.touch(buf.ptr, 2 * hw::kPageSize, hw::Access::kRead);
    });
    const hw::AddressSpace &space = sys.monitor().space();
    const int b_key = sys.monitor().cubicle(b).pkey.load();
    ASSERT_EQ(space.entryAt(buf.first).pkey.load(), b_key);
    ASSERT_EQ(space.entryAt(buf.first + 1).pkey.load(), b_key);

    const uint64_t calls0 = space.retagCount();
    const uint64_t retags0 = sys.stats().retags();
    sys.destroyComponent("b");

    EXPECT_EQ(space.retagCount() - calls0, 1u);
    EXPECT_EQ(sys.stats().retags() - retags0, space.retagCount() - calls0);
    const int a_key = sys.monitor().cubicle(a).pkey.load();
    EXPECT_EQ(space.entryAt(buf.first).pkey.load(), a_key);
    EXPECT_EQ(space.entryAt(buf.first + 1).pkey.load(), a_key);
}

/**
 * Satellite regression: destroying a *parked* (tag-evicted) cubicle
 * reclaims it in place — the revocation epoch is bumped but its pages
 * are never faulted back in just to be freed.
 */
TEST(LifecycleTest, ParkedDestroyReclaimsInPlace)
{
    SystemConfig cfg = fullConfig();
    cfg.virtualizeTags = true;
    cfg.physTagBudget = 8;
    cfg.dynamicTags = 1;
    System sys(cfg);

    constexpr int kToys = 10;
    for (int i = 0; i < kToys; ++i) {
        addToy(sys, "c" + std::to_string(i))
            .onExports([](Exporter &exp, auto &) {
                exp.fn<int()>("ping", [] { return 7; });
            });
    }
    sys.boot();

    // Find two dynamically-tagged cubicles; with a single dynamic tag,
    // calling into the second parks the first.
    std::vector<std::string> logical;
    for (int i = 0; i < kToys; ++i) {
        const std::string name = "c" + std::to_string(i);
        if (sys.monitor().cubicle(sys.cidOf(name)).lkey >= 0)
            logical.push_back(name);
    }
    ASSERT_GE(logical.size(), 2u);
    const Cid parked = sys.cidOf(logical[0]);

    auto pingA = sys.resolve<int()>(logical[0], "ping");
    auto pingB = sys.resolve<int()>(logical[1], "ping");
    sys.runAs(sys.cidOf("c0"), [&] {
        EXPECT_EQ(pingA(), 7);
        EXPECT_EQ(pingB(), 7); // evicts A onto the parked tag
    });
    ASSERT_EQ(sys.monitor().cubicle(parked).pkey.load(),
              sys.monitor().parkedKey());

    const uint64_t fault_ins0 = sys.stats().faultIns();
    const uint64_t cub_fault_ins0 =
        sys.monitor().cubicle(parked).faultIns.load();
    const uint64_t epoch0 = sys.monitor().windowEpoch();

    const std::size_t reclaimed = sys.destroyComponent(logical[0]);

    EXPECT_GT(reclaimed, 0u);
    EXPECT_EQ(sys.monitor().lifeState(parked), LifeState::kDead);
    EXPECT_GT(sys.monitor().windowEpoch(), epoch0);
    // The whole point: reclaim happened under the parked tag.
    EXPECT_EQ(sys.stats().faultIns(), fault_ins0);
    EXPECT_EQ(sys.monitor().cubicle(parked).faultIns.load(),
              cub_fault_ins0);

    // And a parked death is still restartable.
    sys.restartComponent(logical[0]);
    sys.runAs(sys.cidOf("c0"), [&] { EXPECT_EQ(pingA(), 7); });
}

/**
 * Crash lab: the network stack dies under the web server. Every
 * socket call degrades to kNetPeerFault; nginx drops the affected
 * connections and the process survives — no exception crosses an
 * application boundary.
 */
TEST(CrashLabTest, LwipCrashReturnsErrorsToHttpd)
{
    baselines::CrashLabHarness h(IsolationMode::kFull);
    h.createFile("/hello.txt", 4096);
    h.createFile("/big.txt", 262144);

    auto ok = h.fetch("/hello.txt");
    EXPECT_EQ(ok.status, 200);
    EXPECT_EQ(ok.bodyBytes, 4096u);

    // Leave a connection mid-body, then kill the stack under it.
    auto partial = h.fetch("/big.txt", /*max_rounds=*/25);
    (void)partial;
    const uint64_t errors0 = h.nginx().stats().errors;
    EXPECT_GT(h.killLwip(), 0u);

    // The server loop keeps running against the dead stack: calls
    // return kNetPeerFault, in-flight connections are dropped.
    h.pump(10);
    EXPECT_GE(h.nginx().stats().errors, errors0);

    // A fetch against the dead stack fails cleanly (status 0).
    auto dead = h.fetch("/hello.txt");
    EXPECT_EQ(dead.status, 0);

    // The database cubicle, sharing the deployment, is unaffected.
    auto rs = h.exec("CREATE TABLE t (k INT); INSERT INTO t VALUES (1);"
                     "SELECT COUNT(*) FROM t");
    EXPECT_EQ(rs.scalarInt(), 1);
}

/**
 * Crash lab: destroy and hot-restart the database cubicle while the
 * web server keeps serving through the shared stack. The restarted
 * cubicle reopens its file — rolling back any hot journal the crash
 * left — and answers queries again.
 */
TEST(CrashLabTest, HttpdServesAcrossMinisqlDestroyAndRestart)
{
    baselines::CrashLabHarness h(IsolationMode::kFull);
    h.createFile("/site.txt", 8192);

    h.exec("CREATE TABLE kv (k INT, v INT)");
    h.exec("INSERT INTO kv VALUES (1, 10)");
    EXPECT_EQ(h.fetch("/site.txt").status, 200);

    const std::size_t reclaimed = h.killMinisql();
    EXPECT_GT(reclaimed, 0u);
    EXPECT_EQ(h.sys().stats().destroys(), 1u);

    // Queries into the dead cubicle unwind with PeerFault...
    EXPECT_THROW(h.exec("SELECT COUNT(*) FROM kv"), PeerFault);
    // ...while HTTP service through the untouched stack continues.
    auto during = h.fetch("/site.txt");
    EXPECT_EQ(during.status, 200);
    EXPECT_EQ(during.bodyBytes, 8192u);

    h.restartMinisql();
    EXPECT_EQ(h.sys().stats().restarts(), 1u);

    // Committed state survived on the (never-crashed) RAMFS.
    EXPECT_EQ(h.exec("SELECT COUNT(*) FROM kv").scalarInt(), 1);
    h.exec("INSERT INTO kv VALUES (2, 20)");
    EXPECT_EQ(h.exec("SELECT COUNT(*) FROM kv").scalarInt(), 2);
    EXPECT_EQ(h.fetch("/site.txt").status, 200);
}

/**
 * Satellite: multi-tenant fault injection. One tenant's log cubicle is
 * killed and restarted under load; every tenant's HTTP responses are
 * byte-identical to an uninterrupted run, and the restarted log
 * converges to the true request total (the server keeps the
 * unreported delta while its peer is down).
 */
TEST(MultiTenantCrashTest, TenantLogKillIsInvisibleToOtherTenants)
{
    constexpr int kTenants = 26;
    constexpr int kVictim = 3;

    auto run = [&](bool inject) {
        httpd::HttpHarness h(IsolationMode::kFull, 65536,
                             httpd::HttpHarness::kRequestBaseCycles,
                             /*sendfile=*/false, kTenants);
        for (int t = 0; t < kTenants; ++t)
            h.createFile(t, "/f.txt", 1024 + 128 * t);

        std::vector<std::string> bodies;
        for (int t = 0; t < kTenants; ++t) {
            auto r = h.fetch(t, "/f.txt");
            EXPECT_EQ(r.status, 200);
            bodies.push_back(r.body);
        }

        if (inject)
            h.sys().destroyComponent("tlog" + std::to_string(kVictim));

        for (int t = 0; t < kTenants; ++t) {
            auto r = h.fetch(t, "/f.txt");
            EXPECT_EQ(r.status, 200);
            bodies.push_back(r.body);
        }

        if (inject) {
            h.sys().restartComponent("tlog" + std::to_string(kVictim));
            // The next completed request re-delivers the full running
            // total: the restarted log converges to the truth.
            auto r = h.fetch(kVictim, "/f.txt");
            EXPECT_EQ(r.status, 200);
            EXPECT_EQ(h.tenantLog(kVictim).totalRequests(), 3u);
        }
        return bodies;
    };

    const auto clean = run(false);
    const auto injected = run(true);
    ASSERT_EQ(clean.size(), injected.size());
    for (std::size_t i = 0; i < clean.size(); ++i)
        EXPECT_EQ(clean[i], injected[i]) << "response " << i;
}

} // namespace
} // namespace cubicleos::core
