#include "hw/shards.h"

#include <bit>
#include <stdexcept>
#include <string>

namespace cubicleos::hw {

static_assert(kShards == 64, "one 64-bit word of slot bits");

std::size_t
SlotPool::claim()
{
    uint64_t used = used_.load(std::memory_order_relaxed);
    for (;;) {
        if (used == ~uint64_t{0}) {
            throw std::runtime_error(
                "hw::SlotPool: all " + std::to_string(kShards) +
                " counter slots are held by live threads");
        }
        const int slot = std::countr_one(used);
        if (used_.compare_exchange_weak(used, used | uint64_t{1} << slot,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed))
            return static_cast<std::size_t>(slot);
    }
}

void
SlotPool::release(std::size_t slot)
{
    used_.fetch_and(~(uint64_t{1} << slot), std::memory_order_release);
}

std::size_t
SlotPool::held() const
{
    return static_cast<std::size_t>(
        std::popcount(used_.load(std::memory_order_relaxed)));
}

SlotPool &
threadSlotPool()
{
    static SlotPool pool;
    return pool;
}

} // namespace cubicleos::hw
