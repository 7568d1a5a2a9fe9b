/**
 * @file
 * Tests for the per-thread counter slots (hw/shards.h): every live
 * thread holds a slot of its own, the pool refuses a kShards + 1st
 * claim instead of sharing, and a joined thread's slot goes to the
 * next thread with the counts it left intact.
 */

#include <gtest/gtest.h>

#include <barrier>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "hw/cycles.h"
#include "hw/shards.h"

namespace cubicleos::hw {
namespace {

TEST(SlotPool, ClaimsTheLowestFreeSlotAndRefusesTheSixtyFifth)
{
    SlotPool pool;
    for (std::size_t i = 0; i < kShards; ++i)
        ASSERT_EQ(pool.claim(), i);
    EXPECT_EQ(pool.held(), kShards);
    EXPECT_THROW(pool.claim(), std::runtime_error);
    EXPECT_EQ(pool.held(), kShards);

    pool.release(17);
    pool.release(5);
    EXPECT_EQ(pool.claim(), 5u);
    EXPECT_EQ(pool.claim(), 17u);
    EXPECT_THROW(pool.claim(), std::runtime_error);
}

TEST(SlotPool, LiveThreadsHoldDistinctSlots)
{
    constexpr int kThreads = 16;
    const std::size_t mine = threadShard();
    std::vector<std::size_t> slots(kThreads);
    // Nobody exits before every thread has claimed its slot.
    std::barrier claimed(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            slots[t] = threadShard();
            claimed.arrive_and_wait();
        });
    }
    for (auto &th : threads)
        th.join();
    const std::set<std::size_t> distinct(slots.begin(), slots.end());
    EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kThreads));
    EXPECT_EQ(distinct.count(mine), 0u);
}

TEST(SlotPool, JoinedThreadsSlotsAreReusedAndTotalsStayExact)
{
    // Three waves of threads charge one clock at once. Each wave
    // claims the slots the last one released, and continues its sums.
    constexpr int kThreads = 16;
    constexpr uint64_t kCharges = 20000;
    const std::size_t heldBefore = threadSlotPool().held();
    CycleClock clock;
    std::set<std::size_t> firstWave;
    for (int wave = 0; wave < 3; ++wave) {
        std::vector<std::size_t> slots(kThreads);
        std::barrier start(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                slots[t] = threadShard();
                start.arrive_and_wait();
                for (uint64_t i = 0; i < kCharges; ++i)
                    clock.charge(1);
            });
        }
        for (auto &th : threads)
            th.join();
        EXPECT_EQ(threadSlotPool().held(), heldBefore) << "wave " << wave;
        EXPECT_EQ(clock.read(), (wave + 1) * kThreads * kCharges)
            << "wave " << wave;
        const std::set<std::size_t> used(slots.begin(), slots.end());
        EXPECT_EQ(used.size(), static_cast<std::size_t>(kThreads));
        if (wave == 0)
            firstWave = used;
        else
            EXPECT_EQ(used, firstWave) << "wave " << wave;
    }
}

} // namespace
} // namespace cubicleos::hw
