/**
 * @file
 * Per-thread shards for counters bumped on every cross-cubicle call.
 *
 * A crossing writes the cycle clock, the Stats table and the callee's
 * in-flight count. With one shared atomic each, every core's
 * increment pulls the same cache line away from the others, and the
 * monitor slows down as threads are added. Shards<T> instead keeps
 * kShards cache-line-aligned copies of T out of line, behind one
 * pointer, so the owner's own layout does not change. A thread writes
 * only the copy it was assigned round-robin at its first use, and
 * readers sum every copy. Up to kShards threads therefore never share
 * a line; more threads share copies, which is why the copies stay
 * atomic.
 */

#ifndef CUBICLEOS_HW_SHARDS_H_
#define CUBICLEOS_HW_SHARDS_H_

#include <atomic>
#include <cstddef>
#include <memory>

namespace cubicleos::hw {

/** Number of per-thread copies behind every sharded counter. */
inline constexpr std::size_t kShards = 16;

/** The calling thread's shard, assigned round-robin at its first use. */
inline std::size_t
threadShard()
{
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t shard =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return shard;
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

    /** The calling thread's copy. */
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
