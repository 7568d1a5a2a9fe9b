/**
 * @file
 * Threaded lifecycle tests: a cubicle is destroyed while other threads
 * are inside it or racing to enter it. Runs under both the `lifecycle`
 * and `concurrency` labels so the TSan preset exercises the quiesce
 * handshake (Cubicle::life / the monitor's per-shard in-flight counts,
 * seq_cst) under real contention.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

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

/**
 * A thread busy inside a cubicle is unwound by its next checked
 * operation once destroy marks the cubicle draining — the quiesce
 * terminates even though the victim never returns voluntarily.
 */
TEST(LifecycleStressTest, MidCallUnwindTerminatesQuiesce)
{
    System sys(fullConfig());
    std::atomic<bool> entered{false};

    addToy(sys, "caller");
    addToy(sys, "victim")
        .onExports([&entered](Exporter &exp, auto &me) {
            exp.fn<int()>("spin", [&entered, &me]() -> int {
                // Loops forever unless the lifecycle unwinds it: each
                // heap round trip is a checked monitor operation.
                for (;;) {
                    void *p = me.sys()->heapAlloc(64);
                    me.sys()->heapFree(p);
                    entered.store(true);
                }
            });
        });
    sys.boot();

    auto spin = sys.resolve<int()>("victim", "spin");
    const Cid caller = sys.cidOf("caller");

    std::atomic<bool> unwound{false};
    std::thread t([&] {
        try {
            sys.runAs(caller, [&] { spin(); });
        } catch (const PeerFault &) {
            unwound.store(true);
        }
    });

    while (!entered.load())
        std::this_thread::yield();
    const std::size_t reclaimed = sys.destroyComponent("victim");
    t.join();

    EXPECT_TRUE(unwound.load());
    EXPECT_GT(reclaimed, 0u);
    EXPECT_GE(sys.stats().unwoundCalls(), 1u);
    EXPECT_EQ(sys.monitor().lifeState(sys.cidOf("victim")),
              LifeState::kDead);
}

/**
 * The quiesce waits on every shard: a thread inside the victim that
 * makes no checked access cannot be unwound, so destroy must not
 * return until that thread leaves — and its call then completes
 * normally.
 */
TEST(LifecycleStressTest, QuiesceWaitsForInsiderWithoutCheckedAccess)
{
    System sys(fullConfig());
    std::atomic<bool> entered{false};
    std::atomic<bool> release{false};

    addToy(sys, "caller");
    addToy(sys, "svc").onExports([&](Exporter &exp, auto &) {
        exp.fn<int()>("hold", [&]() -> int {
            entered.store(true);
            while (!release.load())
                std::this_thread::yield();
            return 7;
        });
    });
    sys.boot();

    auto hold = sys.resolve<int()>("svc", "hold");
    const Cid caller = sys.cidOf("caller");
    const Cid svc = sys.cidOf("svc");

    std::atomic<int> result{0};
    std::thread worker(
        [&] { sys.runAs(caller, [&] { result.store(hold()); }); });
    while (!entered.load())
        std::this_thread::yield();

    std::atomic<bool> destroyed{false};
    std::thread destroyer([&] {
        sys.destroyComponent("svc");
        destroyed.store(true);
    });
    while (sys.monitor().lifeState(svc) == LifeState::kLive)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_FALSE(destroyed.load());
    EXPECT_EQ(sys.monitor().lifeState(svc), LifeState::kDraining);

    release.store(true);
    worker.join();
    destroyer.join();
    EXPECT_EQ(result.load(), 7);
    EXPECT_TRUE(destroyed.load());
    EXPECT_EQ(sys.monitor().lifeState(svc), LifeState::kDead);
}

/**
 * Destroy/restart churn against concurrent callers: every call either
 * completes normally or unwinds with PeerFault — never a crash, a
 * deadlock, or a corrupted counter — and the final generation matches
 * the number of completed cycles.
 */
TEST(LifecycleStressTest, DestroyRestartChurnUnderConcurrentCallers)
{
    constexpr int kCallers = 3;
    constexpr int kCallsPerThread = 300;
    constexpr int kCycles = 20;

    System sys(fullConfig());
    addToy(sys, "svc").onExports([](Exporter &exp, auto &) {
        exp.fn<int(int)>("work", [](int x) { return x + 1; });
    });
    for (int i = 0; i < kCallers; ++i)
        addToy(sys, "caller" + std::to_string(i));
    sys.boot();

    auto work = sys.resolve<int(int)>("svc", "work");
    const Cid svc = sys.cidOf("svc");

    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> refused{0};
    std::vector<std::thread> threads;
    threads.reserve(kCallers);
    for (int i = 0; i < kCallers; ++i) {
        const Cid me = sys.cidOf("caller" + std::to_string(i));
        threads.emplace_back([&, me] {
            for (int c = 0; c < kCallsPerThread; ++c) {
                try {
                    sys.runAs(me, [&] {
                        if (work(c) != c + 1)
                            std::abort(); // corrupted result
                    });
                    completed.fetch_add(1);
                } catch (const PeerFault &) {
                    refused.fetch_add(1);
                }
            }
        });
    }

    for (int r = 0; r < kCycles; ++r) {
        sys.destroyComponent("svc");
        sys.restartComponent("svc");
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(completed.load() + refused.load(),
              static_cast<uint64_t>(kCallers) * kCallsPerThread);
    EXPECT_EQ(sys.stats().destroys(), static_cast<uint64_t>(kCycles));
    EXPECT_EQ(sys.stats().restarts(), static_cast<uint64_t>(kCycles));
    EXPECT_EQ(sys.monitor().lifeGeneration(svc),
              static_cast<uint64_t>(kCycles));

    // The survivor is fully functional after the churn.
    sys.runAs(sys.cidOf("caller0"), [&] { EXPECT_EQ(work(1), 2); });
}

} // namespace
} // namespace cubicleos::core
