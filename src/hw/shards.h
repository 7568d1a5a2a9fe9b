/**
 * @file
 * Per-thread slots for counters bumped on every cross-cubicle call.
 *
 * A crossing writes the cycle clock, the Stats table and the callee's
 * in-flight count. With one shared atomic each, every core's
 * increment pulls the same cache line away from the others, and each
 * write is a locked read-modify-write. Shards<T> instead keeps kShards
 * cache-line-aligned copies of T out of line, behind one pointer, so
 * the owner's own layout does not change. Every live thread holds one
 * slot index of a process-wide SlotPool, from its first use to its
 * exit, and writes only that copy; readers sum every copy. A copy
 * therefore has one writer, so an increment is a plain load and store
 * (RelaxedAtomic::addOwned): the cells stay atomic only so that
 * readers on other threads do not race the writer. A kShards + 1st
 * live thread is refused, never given a shared slot.
 */

#ifndef CUBICLEOS_HW_SHARDS_H_
#define CUBICLEOS_HW_SHARDS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace cubicleos::hw {

/** Number of slots, so the most threads that may write counters at once. */
inline constexpr std::size_t kShards = 64;

/**
 * kShards slot indices, one bit each: claim() takes the lowest free
 * one, release() hands it back. The acquire claim pairs with the
 * release, so a slot's next holder sees every write its last holder
 * made to the slot's copies.
 */
class SlotPool {
  public:
    /**
     * @return the lowest free slot, now held by the caller.
     * @throws std::runtime_error when all kShards slots are held.
     */
    std::size_t claim();

    /** Frees @p slot, which the caller holds. */
    void release(std::size_t slot);

    /** Number of slots held. */
    std::size_t held() const;

  private:
    std::atomic<uint64_t> used_{0};
};

/** The process-wide pool threadShard() claims from. */
SlotPool &threadSlotPool();

/**
 * The calling thread's slot: claimed from threadSlotPool() at the
 * thread's first use, released when the thread exits.
 * @throws std::runtime_error at first use when every slot is held.
 */
inline std::size_t
threadShard()
{
    struct Held {
        const std::size_t slot = threadSlotPool().claim();
        ~Held() { threadSlotPool().release(slot); }
    };
    thread_local const Held held;
    return held.slot;
}

/**
 * kShards value-initialised copies of @p T, each on its own cache
 * lines. Neither copyable nor movable: owners hand out references to
 * the copies.
 */
template <typename T>
class Shards {
  public:
    Shards() : slots_(std::make_unique<Slot[]>(kShards)) {}

    Shards(const Shards &) = delete;
    Shards &operator=(const Shards &) = delete;

    /** The calling thread's copy; no other thread writes it. */
    T &local() { return slots_[threadShard()].value; }

    /** Copy @p i, for readers summing every shard. */
    T &operator[](std::size_t i) { return slots_[i].value; }
    const T &operator[](std::size_t i) const { return slots_[i].value; }

  private:
    struct alignas(64) Slot {
        T value{};
    };
    std::unique_ptr<Slot[]> slots_;
};

} // namespace cubicleos::hw

#endif // CUBICLEOS_HW_SHARDS_H_
