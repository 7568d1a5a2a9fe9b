/**
 * @file
 * A copyable relaxed-ordering atomic cell.
 *
 * The simulated machine state (page tags, page metadata, counters) is
 * mutated by concurrent threads the way real hardware state is: each
 * cell is independently word-atomic, with no ordering implied between
 * cells. RelaxedAtomic models exactly that — every load/store is a
 * std::memory_order_relaxed atomic access — while keeping the value
 * semantics (copy, assign, implicit conversion) of the plain field it
 * replaces, so `entry.pkey = k` and `if (entry.present)` read as
 * before but are data-race-free under TSan.
 *
 * Ordering between cells, where the runtime needs it, comes from the
 * lock hierarchy documented in core/monitor.h, not from these cells.
 */

#ifndef CUBICLEOS_HW_RELAXED_ATOMIC_H_
#define CUBICLEOS_HW_RELAXED_ATOMIC_H_

#include <atomic>

namespace cubicleos::hw {

template <typename T>
class RelaxedAtomic {
  public:
    RelaxedAtomic() : value_(T{}) {}
    RelaxedAtomic(T v) : value_(v) {} // NOLINT: implicit by design
    RelaxedAtomic(const RelaxedAtomic &other) : value_(other.load()) {}

    RelaxedAtomic &operator=(const RelaxedAtomic &other)
    {
        store(other.load());
        return *this;
    }
    RelaxedAtomic &operator=(T v)
    {
        store(v);
        return *this;
    }

    operator T() const { return load(); } // NOLINT: implicit by design

    T load() const { return value_.load(std::memory_order_relaxed); }
    void store(T v) { value_.store(v, std::memory_order_relaxed); }

    T fetchAdd(T n)
    {
        return value_.fetch_add(n, std::memory_order_relaxed);
    }

    /**
     * Adds @p n to a cell the calling thread alone writes (a counter
     * slot, hw/shards.h): a load and a store, with no locked
     * read-modify-write. Concurrent writers would lose updates.
     */
    void addOwned(T n) { store(load() + n); }

    T fetchOr(T bits)
    {
        return value_.fetch_or(bits, std::memory_order_relaxed);
    }

  private:
    std::atomic<T> value_;
};

} // namespace cubicleos::hw

#endif // CUBICLEOS_HW_RELAXED_ATOMIC_H_
