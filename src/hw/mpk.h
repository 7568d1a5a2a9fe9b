/**
 * @file
 * Simulated Intel Memory Protection Keys (MPK).
 *
 * Models the PKRU register with the exact x86 layout: for protection key
 * @c i, bit @c 2i is AD (access disable) and bit @c 2i+1 is WD (write
 * disable). 16 keys are available per address space, matching hardware.
 *
 * It also models the paper's proposed hardware modification (§5.5): when a
 * key has both read and write access disabled, execution on pages with
 * that key is disabled too. Stock MPK lacks tag-wide execute permissions;
 * CubicleOS's CFI argument relies on this "trivial" extension, so the
 * simulated hardware always implements it.
 */

#ifndef CUBICLEOS_HW_MPK_H_
#define CUBICLEOS_HW_MPK_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>

#include "hw/fault.h"

namespace cubicleos::hw {

/** Number of physical protection keys supported by MPK hardware. */
inline constexpr int kNumPhysPkeys = 16;

/**
 * The per-thread PKRU register.
 *
 * Value semantics; the runtime stores one per thread context and "writes"
 * it with Mpk-charged wrpkru operations.
 */
class Pkru {
  public:
    /** Constructs a PKRU denying access to every key. */
    static Pkru denyAll() { return Pkru(~0u); }

    /** Constructs a PKRU granting read+write on every key. */
    static Pkru allowAll() { return Pkru(0u); }

    Pkru() : value_(~0u) {}
    explicit Pkru(uint32_t raw) : value_(raw) {}

    /** Returns the raw 32-bit register value. */
    uint32_t raw() const { return value_; }

    /** True if pages tagged @p key may be read by this thread. */
    bool canRead(int key) const
    {
        return (value_ & adBit(key)) == 0;
    }

    /** True if pages tagged @p key may be written by this thread. */
    bool canWrite(int key) const
    {
        return (value_ & (adBit(key) | wdBit(key))) == 0;
    }

    /**
     * True if pages tagged @p key may be executed by this thread, under
     * the paper's modified-MPK semantics (AD+WD set disables execution).
     */
    bool canExecModified(int key) const
    {
        return canRead(key) || (value_ & wdBit(key)) == 0;
    }

    /** Grants read+write access to @p key. */
    void allow(int key)
    {
        value_ &= ~(adBit(key) | wdBit(key));
    }

    /** Grants read-only access to @p key. */
    void allowReadOnly(int key)
    {
        value_ &= ~adBit(key);
        value_ |= wdBit(key);
    }

    /** Revokes all access to @p key. */
    void deny(int key)
    {
        value_ |= adBit(key) | wdBit(key);
    }

    /**
     * Merges another register's grants into this one (bitwise: a
     * cleared AD/WD bit in either grants the access). Used to fold a
     * cubicle's hot-window keys into its base permission set.
     */
    void mergeAllow(const Pkru &other) { value_ &= other.value_; }

    bool operator==(const Pkru &other) const = default;

  private:
    static uint32_t adBit(int key) { return 1u << (2 * key); }
    static uint32_t wdBit(int key) { return 1u << (2 * key + 1); }

    uint32_t value_;
};

/**
 * An atomically updatable PKRU value.
 *
 * Used for state that is logically a PKRU register but shared between
 * threads — a cubicle's hot-window grant set, written by window
 * open/close under the monitor's window lock and read lock-free by
 * every permission switch (Monitor::pkruFor). Updates go through a
 * CAS loop over the 32-bit register image, so concurrent grant and
 * revoke operations both land.
 */
class AtomicPkru {
  public:
    AtomicPkru() : raw_(Pkru::denyAll().raw()) {}
    explicit AtomicPkru(const Pkru &p) : raw_(p.raw()) {}

    AtomicPkru(const AtomicPkru &) = delete;
    AtomicPkru &operator=(const AtomicPkru &) = delete;

    /** Snapshot of the current register image. */
    Pkru load() const
    {
        return Pkru(raw_.load(std::memory_order_relaxed));
    }

    /** Grants read+write on @p key. */
    void allow(int key)
    {
        update([key](Pkru &p) { p.allow(key); });
    }

    /** Revokes all access to @p key. */
    void deny(int key)
    {
        update([key](Pkru &p) { p.deny(key); });
    }

  private:
    template <typename F>
    void update(F fn)
    {
        uint32_t v = raw_.load(std::memory_order_relaxed);
        for (;;) {
            Pkru p(v);
            fn(p);
            if (raw_.compare_exchange_weak(v, p.raw(),
                                           std::memory_order_relaxed))
                return;
        }
    }

    std::atomic<uint32_t> raw_;
};

/**
 * MPK key allocator and access-check policy for one address space.
 *
 * Hands out the 16 hardware keys (key 0 is reserved for the trusted
 * monitor, mirroring the kernel's default-key convention) and evaluates
 * PKRU checks. Cubicles loaded once the keys run out share a few of
 * them instead: the monitor's dynamic tag pool (tag virtualisation,
 * BULKHEAD-style; see DESIGN.md §14).
 */
class Mpk {
  public:
    /** Key reserved for the trusted monitor / TCB. */
    static constexpr int kMonitorKey = 0;

    /**
     * @param phys_budget caps physical-tag allocation below the
     *        hardware limit; used by tag-pressure tests to force
     *        eviction with as few as 4 tags. Clamped to
     *        [2, kNumPhysPkeys] (monitor key + at least one more).
     */
    explicit Mpk(int phys_budget = kNumPhysPkeys)
        : nextKey_(1),
          physBudget_(phys_budget < 2 ? 2
                      : phys_budget > kNumPhysPkeys ? kNumPhysPkeys
                                                    : phys_budget)
    {}

    /**
     * Allocates a physical protection key: one returned by freeKey
     * first, else a fresh one.
     *
     * Thread-safe: the loader and windowSetHot allocate keys under
     * different locks of the monitor's hierarchy, so the freed mask
     * and the counter advance with a CAS instead of relying on
     * external exclusion.
     *
     * @return the key, or -1 if the physical keys (as capped by the
     *         budget) are exhausted.
     */
    int allocKey()
    {
        uint32_t freed = freedKeys_.load(std::memory_order_relaxed);
        while (freed != 0) {
            const int key = std::countr_zero(freed);
            if (freedKeys_.compare_exchange_weak(
                    freed, freed & ~(1u << key), std::memory_order_relaxed))
                return key;
        }
        int cur = nextKey_.load(std::memory_order_relaxed);
        while (cur < physBudget_) {
            if (nextKey_.compare_exchange_weak(
                    cur, cur + 1, std::memory_order_relaxed))
                return cur;
        }
        return -1;
    }

    /**
     * Returns @p key, taken from allocKey and no longer tagging any
     * page, for reuse (a load that failed after taking it).
     */
    void freeKey(int key)
    {
        freedKeys_.fetch_or(1u << key, std::memory_order_relaxed);
    }

    /** Physical keys still allocatable under the budget. */
    int remainingKeys() const
    {
        const int next = nextKey_.load(std::memory_order_relaxed);
        return (next < physBudget_ ? physBudget_ - next : 0) +
               std::popcount(freedKeys_.load(std::memory_order_relaxed));
    }

    /** The physical-tag budget this allocator enforces. */
    int physBudget() const { return physBudget_; }

    /**
     * Evaluates an MPK check for an access of kind @p access to a page
     * tagged @p pkey under register state @p pkru.
     *
     * @return the fault reason, or no value if the access is allowed.
     */
    std::optional<FaultReason>
    check(const Pkru &pkru, uint8_t pkey, Access access) const
    {
        switch (access) {
          case Access::kRead:
            if (!pkru.canRead(pkey))
                return FaultReason::kPkuRead;
            return std::nullopt;
          case Access::kWrite:
            if (!pkru.canWrite(pkey))
                return FaultReason::kPkuWrite;
            return std::nullopt;
          case Access::kExec:
            if (!pkru.canExecModified(pkey))
                return FaultReason::kExecDenied;
            return std::nullopt;
        }
        return std::nullopt;
    }

  private:
    std::atomic<int> nextKey_;
    std::atomic<uint32_t> freedKeys_{0}; ///< bit k: key k was freed
    int physBudget_;
};

} // namespace cubicleos::hw

#endif // CUBICLEOS_HW_MPK_H_
