/**
 * @file
 * Concurrency tests: MPK permissions are per-thread (paper §2.2), so
 * threads carry independent PKRU state and cross-cubicle contexts.
 * Threads operate on disjoint pages, matching the runtime's
 * documented discipline.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/system.h"
#include "hw/cycles.h"
#include "hw/shards.h"
#include "tests/core/toy_components.h"

namespace cubicleos::core {
namespace {

using testing::ToyComponent;
using testing::addToy;
using testing::numbered;

TEST(Concurrency, ParallelCrossCallsKeepContextsSeparate)
{
    SystemConfig cfg;
    cfg.numPages = 4096;
    System sys(cfg);
    addToy(sys, "srv").onExports([](Exporter &exp, ToyComponent &me) {
        exp.fn<Cid()>("who",
                      [&me] { return me.sys()->currentCubicle(); });
    });
    for (int i = 0; i < 4; ++i)
        addToy(sys, "app" + std::to_string(i));
    sys.boot();
    auto who = sys.resolve<Cid()>("srv", "who");
    const Cid srv = sys.cidOf("srv");

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            const Cid me = sys.cidOf("app" + std::to_string(t));
            sys.runAs(me, [&] {
                for (int i = 0; i < 2000; ++i) {
                    if (who() != srv)
                        ++failures;
                    if (sys.currentCubicle() != me)
                        ++failures;
                }
            });
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(failures.load(), 0);
    // Every app->srv edge carries exactly its own calls.
    for (int t = 0; t < 4; ++t) {
        EXPECT_EQ(sys.stats().callsOnEdge(
                      sys.cidOf("app" + std::to_string(t)), srv),
                  2000u);
    }
}

// Per-crossing counters live on per-thread slots (hw/shards.h), one
// writer each. Three waves of kThreads threads cross into one server;
// each wave reuses the slots the last one released, and the summed
// counters must stay exact: each thread's runAs entry and its kCalls
// cross-calls are kThreads * (kCalls + 1) crossings per wave, of 4
// wrpkrus (2 in, 2 out) and 2 * (trampoline + stack switch + 2
// wrpkru) cycles each. The callers are shared cubicles because
// kThreads isolated cubicles would exceed the 16 MPK tags, and tag
// virtualisation would add retag cycles to the clock.
TEST(Concurrency, ShardedCountersStayExactAcrossWavesOfThreads)
{
    constexpr int kThreads = 24;
    constexpr int kWaves = 3;
    constexpr int kCalls = 2000;
    SystemConfig cfg;
    cfg.numPages = 8192;
    System sys(cfg);
    addToy(sys, "srv").onExports([](Exporter &exp, ToyComponent &) {
        exp.fn<int(int)>("inc", [](int x) { return x + 1; });
    });
    for (int t = 0; t < kThreads; ++t)
        addToy(sys, numbered("app", t), CubicleKind::kShared);
    sys.boot();
    auto inc = sys.resolve<int(int)>("srv", "inc");

    const uint64_t wrpkrus0 = sys.stats().wrpkrus();
    const uint64_t calls0 = sys.stats().totalCalls();
    const uint64_t cycles0 = sys.clock().read();
    const std::size_t held0 = hw::threadSlotPool().held();
    std::atomic<int> failures{0};
    for (int wave = 1; wave <= kWaves; ++wave) {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                sys.runAs(sys.cidOf(numbered("app", t)), [&] {
                    for (int i = 0; i < kCalls; ++i) {
                        if (inc(i) != i + 1)
                            ++failures;
                    }
                });
            });
        }
        for (auto &th : threads)
            th.join();
        EXPECT_EQ(hw::threadSlotPool().held(), held0) << "wave " << wave;

        const uint64_t crossings =
            uint64_t{kThreads} * (kCalls + 1) * wave;
        EXPECT_EQ(sys.stats().wrpkrus() - wrpkrus0, 4 * crossings)
            << "wave " << wave;
        EXPECT_EQ(sys.stats().totalCalls() - calls0,
                  uint64_t{kThreads} * kCalls * wave)
            << "wave " << wave;
        EXPECT_EQ(sys.clock().read() - cycles0,
                  crossings * 2 *
                      (hw::cost::kTrampoline + hw::cost::kStackSwitch +
                       2 * hw::cost::kWrpkru))
            << "wave " << wave;
    }
    EXPECT_EQ(failures.load(), 0);

    // Reset from a thread that never wrote most of the slots.
    sys.stats().reset();
    sys.clock().reset();
    EXPECT_EQ(sys.stats().wrpkrus(), 0u);
    EXPECT_EQ(sys.stats().totalCalls(), 0u);
    EXPECT_EQ(sys.clock().read(), 0u);
}

/**
 * Pins what one crossing costs in @p mode after the guard's charge
 * merge: the modelled cycles and wrpkru of one cross-call from the
 * main thread, then the totals of kThreads threads crossing at once,
 * each from its own isolated app.
 */
void
expectCrossingCost(IsolationMode mode, uint64_t cyclesPerCall,
                   uint64_t wrpkrusPerCall)
{
    constexpr int kThreads = 4;
    constexpr int kCalls = 20000;
    SystemConfig cfg;
    cfg.numPages = 4096;
    cfg.mode = mode;
    System sys(cfg);
    addToy(sys, "srv").onExports([](Exporter &exp, ToyComponent &) {
        exp.fn<int(int)>("inc", [](int x) { return x + 1; });
    });
    for (int t = 0; t < kThreads; ++t)
        addToy(sys, numbered("app", t));
    sys.boot();
    auto inc = sys.resolve<int(int)>("srv", "inc");

    sys.runAs(sys.cidOf("app0"), [&] {
        const uint64_t cycles0 = sys.clock().read();
        const uint64_t wrpkrus0 = sys.stats().wrpkrus();
        EXPECT_EQ(inc(1), 2);
        EXPECT_EQ(sys.clock().read() - cycles0, cyclesPerCall);
        EXPECT_EQ(sys.stats().wrpkrus() - wrpkrus0, wrpkrusPerCall);
    });

    const uint64_t cycles0 = sys.clock().read();
    const uint64_t wrpkrus0 = sys.stats().wrpkrus();
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            sys.runAs(sys.cidOf(numbered("app", t)), [&] {
                for (int i = 0; i < kCalls; ++i) {
                    if (inc(i) != i + 1)
                        ++failures;
                }
            });
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(failures.load(), 0);
    // Each thread's runAs entry is one more crossing.
    const uint64_t crossings = uint64_t{kThreads} * (kCalls + 1);
    EXPECT_EQ(sys.clock().read() - cycles0, crossings * cyclesPerCall);
    EXPECT_EQ(sys.stats().wrpkrus() - wrpkrus0, crossings * wrpkrusPerCall);
}

// Trampoline and stack switch each way; no wrpkru without MPK.
TEST(Concurrency, CrossingCostIsExactWithoutMpk)
{
    expectCrossingCost(IsolationMode::kNoMpk,
                       2 * (hw::cost::kTrampoline + hw::cost::kStackSwitch),
                       0);
}

// The paper's 180-cycle round trip: two wrpkru each way on top.
TEST(Concurrency, CrossingCostIsExactWithoutAcls)
{
    expectCrossingCost(IsolationMode::kNoAcl, 180, 4);
}

TEST(Concurrency, CrossingCostIsExactInFullIsolation)
{
    expectCrossingCost(IsolationMode::kFull, 180, 4);
}

TEST(Concurrency, ParallelWindowGrantsOnDisjointPages)
{
    SystemConfig cfg;
    cfg.numPages = 8192;
    System sys(cfg);
    addToy(sys, "reader").onExports(
        [](Exporter &exp, ToyComponent &me) {
            exp.fn<int(const char *, std::size_t)>(
                "sum", [&me](const char *p, std::size_t n) {
                    me.sys()->touch(p, n, hw::Access::kRead);
                    int s = 0;
                    for (std::size_t i = 0; i < n; ++i)
                        s += p[i];
                    return s;
                });
        });
    for (int i = 0; i < 3; ++i)
        addToy(sys, numbered("w", i));
    sys.boot();
    auto sum = sys.resolve<int(const char *, std::size_t)>("reader",
                                                           "sum");
    const Cid reader = sys.cidOf("reader");

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
        threads.emplace_back([&, t] {
            const Cid me = sys.cidOf(numbered("w", t));
            sys.runAs(me, [&] {
                // Each thread shares its own pages only.
                auto *buf = reinterpret_cast<char *>(
                    sys.monitor()
                        .allocPagesFor(me, 1, mem::PageType::kHeap)
                        .ptr);
                std::memset(buf, t + 1, 100);
                const Wid wid = sys.windowInit();
                sys.windowAdd(wid, buf, 100);
                sys.windowOpen(wid, reader);
                for (int i = 0; i < 500; ++i) {
                    if (sum(buf, 100) != 100 * (t + 1))
                        ++failures;
                    sys.touch(buf, 100, hw::Access::kWrite); // reclaim
                }
                sys.windowDestroy(wid);
            });
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GE(sys.stats().retags(), 3u);
}

TEST(Concurrency, ViolationInOneThreadDoesNotPoisonOthers)
{
    SystemConfig cfg;
    cfg.numPages = 4096;
    System sys(cfg);
    addToy(sys, "victim");
    addToy(sys, "attacker");
    addToy(sys, "worker");
    sys.boot();

    char *secret = nullptr;
    sys.runAs(sys.cidOf("victim"), [&] {
        secret = static_cast<char *>(sys.heapAlloc(32));
    });

    std::atomic<int> violations{0};
    std::atomic<int> worker_errors{0};
    std::thread attacker([&] {
        sys.runAs(sys.cidOf("attacker"), [&] {
            for (int i = 0; i < 200; ++i) {
                try {
                    sys.touch(secret, 8, hw::Access::kRead);
                } catch (const hw::CubicleFault &) {
                    ++violations;
                }
            }
        });
    });
    std::thread worker([&] {
        sys.runAs(sys.cidOf("worker"), [&] {
            for (int i = 0; i < 200; ++i) {
                void *p = sys.heapAlloc(64);
                try {
                    sys.touch(p, 64, hw::Access::kWrite);
                } catch (const hw::CubicleFault &) {
                    ++worker_errors;
                }
                sys.heapFree(p);
            }
        });
    });
    attacker.join();
    worker.join();
    EXPECT_EQ(violations.load(), 200);
    EXPECT_EQ(worker_errors.load(), 0);
}

// Virtual-key eviction must invalidate cached grants (DESIGN.md §14):
// evicting a cubicle sweeps every page carrying its physical tag — the
// pages it was *granted* included — to the parked tag, then rebinds the
// tag to another cubicle. A grant-cache entry that survived the
// eviction would absorb the fault and let the thread touch a parked
// page whose tag now belongs to someone else. The eviction therefore
// bumps the revocation epoch, unlike PR 8's widening retags which
// deliberately do not.
TEST(Concurrency, EvictionInvalidatesCachedGrantsDeterministically)
{
    SystemConfig cfg;
    cfg.numPages = 8192;
    cfg.stackPages = 2;
    cfg.virtualizeTags = true;
    cfg.physTagBudget = 5; // monitor, shared, parked + 2 dynamic
    cfg.dynamicTags = 2;
    System sys(cfg);
    addToy(sys, "reader").onExports(
        [](Exporter &exp, ToyComponent &me) {
            exp.fn<int(const char *, std::size_t)>(
                "sum", [&me](const char *p, std::size_t n) {
                    me.sys()->touch(p, n, hw::Access::kRead);
                    int s = 0;
                    for (std::size_t i = 0; i < n; ++i)
                        s += p[i];
                    return s;
                });
        });
    addToy(sys, "owner");
    for (int i = 0; i < 3; ++i)
        addToy(sys, "filler" + std::to_string(i));
    sys.boot();
    auto sum = sys.resolve<int(const char *, std::size_t)>("reader",
                                                           "sum");
    const Cid reader = sys.cidOf("reader");
    const Cid owner = sys.cidOf("owner");
    const int parked = sys.monitor().parkedKey();
    ASSERT_GE(parked, 0);

    char *buf = nullptr;
    sys.runAs(owner, [&] {
        buf = reinterpret_cast<char *>(
            sys.monitor()
                .allocPagesFor(owner, 1, mem::PageType::kHeap)
                .ptr);
        std::memset(buf, 3, 64);
        const Wid wid = sys.windowInit();
        sys.windowAdd(wid, buf, 64);
        sys.windowOpen(wid, reader);
        // First call trap-and-maps and fills the grant cache; after
        // the owner reclaims the tag, the repeat is absorbed by it.
        ASSERT_EQ(sum(buf, 64), 3 * 64);
        sys.touch(buf, 64, hw::Access::kWrite); // reclaim the tag
        const uint64_t hits0 = sys.stats().grantCacheHits();
        ASSERT_EQ(sum(buf, 64), 3 * 64);
        EXPECT_GT(sys.stats().grantCacheHits(), hits0)
            << "grant cache must absorb the repeat access";
    });

    // Force the reader (and owner) out of the dynamic pool: cycling
    // three fillers through two dynamic tags evicts everyone else.
    for (int round = 0; round < 3 &&
                        sys.monitor().cubicle(reader).pkey != parked;
         ++round) {
        for (int i = 0; i < 3; ++i) {
            const Cid f = sys.cidOf("filler" + std::to_string(i));
            auto &own = sys.monitor().cubicle(f).globalRange;
            sys.runAs(f, [&] {
                sys.touch(own.ptr, 16, hw::Access::kWrite);
            });
        }
    }
    ASSERT_EQ(sys.monitor().cubicle(reader).pkey.load(), parked);
    EXPECT_GT(sys.stats().evictions(), 0u);
    // The granted page was swept along with the reader's tag.
    const std::size_t page = sys.monitor().space().pageIndexOf(buf);
    ASSERT_EQ(sys.monitor().space().entryAt(page).pkey.load(),
              static_cast<uint8_t>(parked));

    // The cached grant is dead: the next access must take a full
    // trap-and-map (re-checking the window ACL), not a cache hit.
    sys.runAs(owner, [&] {
        const uint64_t hits1 = sys.stats().grantCacheHits();
        const uint64_t traps1 = sys.stats().traps();
        EXPECT_EQ(sum(buf, 64), 3 * 64);
        EXPECT_EQ(sys.stats().grantCacheHits(), hits1)
            << "a cached grant must not absorb a parked page";
        EXPECT_GT(sys.stats().traps(), traps1)
            << "parked page must re-trap through handleFault";
    });
}

TEST(Concurrency, GrantsStayCoherentUnderConcurrentEvictions)
{
    SystemConfig cfg;
    cfg.numPages = 16384;
    cfg.stackPages = 2;
    cfg.virtualizeTags = true;
    cfg.physTagBudget = 5;
    cfg.dynamicTags = 2;
    System sys(cfg);
    addToy(sys, "reader").onExports(
        [](Exporter &exp, ToyComponent &me) {
            exp.fn<int(const char *, std::size_t)>(
                "sum", [&me](const char *p, std::size_t n) {
                    me.sys()->touch(p, n, hw::Access::kRead);
                    int s = 0;
                    for (std::size_t i = 0; i < n; ++i)
                        s += p[i];
                    return s;
                });
        });
    addToy(sys, "owner");
    for (int i = 0; i < 3; ++i)
        addToy(sys, "filler" + std::to_string(i));
    sys.boot();
    auto sum = sys.resolve<int(const char *, std::size_t)>("reader",
                                                           "sum");
    const Cid owner = sys.cidOf("owner");
    const Cid reader = sys.cidOf("reader");

    char *buf = nullptr;
    sys.runAs(owner, [&] {
        buf = reinterpret_cast<char *>(
            sys.monitor()
                .allocPagesFor(owner, 1, mem::PageType::kHeap)
                .ptr);
        std::memset(buf, 5, 64);
        const Wid wid = sys.windowInit();
        sys.windowAdd(wid, buf, 64);
        sys.windowOpen(wid, reader);
    });

    std::atomic<int> failures{0};
    std::thread caller([&] {
        sys.runAs(owner, [&] {
            for (int i = 0; i < 1500; ++i) {
                if (sum(buf, 64) != 5 * 64)
                    ++failures;
            }
        });
    });
    std::thread evictor([&] {
        for (int round = 0; round < 100; ++round) {
            for (int i = 0; i < 3; ++i) {
                const Cid f =
                    sys.cidOf("filler" + std::to_string(i));
                auto &own = sys.monitor().cubicle(f).globalRange;
                sys.runAs(f, [&] {
                    sys.touch(own.ptr, 16, hw::Access::kWrite);
                });
            }
        }
    });
    caller.join();
    evictor.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GT(sys.stats().evictions(), 0u);
    EXPECT_GT(sys.stats().faultIns(), 0u);

    // Full scan after the join: no page kept a tag that was recycled
    // under it. Each present page carries its owner's current tag or
    // the parked tag; the window page may also carry its one grantee's.
    Monitor &mon = sys.monitor();
    const auto &space = mon.space();
    const auto parked = static_cast<uint8_t>(mon.parkedKey());
    const std::size_t shared_page = space.pageIndexOf(buf);
    for (std::size_t p = 0; p < space.numPages(); ++p) {
        if (!space.entryAt(p).present)
            continue;
        const Cid own = mon.pageMeta().at(p).owner;
        ASSERT_LT(own, mon.cubicleCount()) << "page " << p;
        const uint8_t tag = space.entryAt(p).pkey;
        const bool ok =
            tag == parked ||
            tag == static_cast<uint8_t>(mon.cubicle(own).pkey) ||
            (p == shared_page &&
             tag == static_cast<uint8_t>(mon.cubicle(reader).pkey));
        EXPECT_TRUE(ok) << "page " << p << " of "
                        << mon.cubicle(own).name << " carries tag "
                        << int(tag);
    }
}

} // namespace
} // namespace cubicleos::core
