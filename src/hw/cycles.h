/**
 * @file
 * Virtual cycle accounting for hardware-priced operations.
 *
 * The reproduction runs on a machine without Intel MPK, so operations whose
 * cost the paper cites from hardware (wrpkru, pkey_mprotect, page-fault
 * traps, kernel IPC entry) are charged to a virtual cycle clock instead.
 * Benchmarks report wall time plus modelled cycles at the paper's CPU
 * frequency (Xeon Silver 4210, 2.2 GHz), keeping relative costs faithful
 * and results deterministic in shape.
 */

#ifndef CUBICLEOS_HW_CYCLES_H_
#define CUBICLEOS_HW_CYCLES_H_

#include <cstdint>

#include "hw/relaxed_atomic.h"
#include "hw/shards.h"

namespace cubicleos::hw {

/** Cost constants (in cycles) for hardware-priced operations. */
namespace cost {

/** Paper's reference CPU frequency in GHz (Intel Xeon Silver 4210). */
inline constexpr double kCpuGhz = 2.2;

/** wrpkru: user-level PKRU update, ~20 cycles (paper §2.2, [43]). */
inline constexpr uint64_t kWrpkru = 20;

/** rdpkru: reading the PKRU register. */
inline constexpr uint64_t kRdpkru = 6;

/**
 * Assigning a protection key to a page (pkey_mprotect), >1,100 cycles in
 * Linux (paper §2.2). Charged per retag in the trap-and-map path.
 */
inline constexpr uint64_t kPkeyMprotect = 1100;

/**
 * Page-fault delivery to the user-level monitor and return. CubicleOS
 * handles window faults in user space: the fault traps to the host
 * kernel, is reflected to the monitor (signal/exception path), and
 * execution resumes after the retag — several thousand cycles on
 * Linux, far above the raw exception cost.
 */
inline constexpr uint64_t kFaultTrap = 3500;

/** Fixed bookkeeping of a cross-cubicle trampoline (excl. wrpkru). */
inline constexpr uint64_t kTrampoline = 30;

/** Switching between per-cubicle stacks inside a trampoline. */
inline constexpr uint64_t kStackSwitch = 20;

/** Host OS system call entry + exit (Linux baseline). */
inline constexpr uint64_t kSyscall = 600;

} // namespace cost

/**
 * A monotonically increasing virtual cycle clock.
 *
 * One instance is owned by each core::System. Every cross-call charges
 * it from the calling thread, so charges go to the thread's own slot
 * (hw/shards.h), which no other thread writes: a charge is a relaxed
 * load and store, not a locked add. read() sums the slots; the clock
 * is an accumulator, not a synchronisation point.
 */
class CycleClock {
  public:
    /** Charges @p n virtual cycles. */
    void charge(uint64_t n) { cycles_.local().addOwned(n); }

    /** Returns the accumulated virtual cycles. */
    uint64_t read() const
    {
        uint64_t n = 0;
        for (std::size_t s = 0; s < kShards; ++s)
            n += cycles_[s];
        return n;
    }

    /**
     * Resets the clock to zero on every shard (benchmark harness use).
     * No thread may charge it meanwhile.
     */
    void reset()
    {
        for (std::size_t s = 0; s < kShards; ++s)
            cycles_[s] = 0;
    }

    /** Converts cycles to nanoseconds at the modelled CPU frequency. */
    static double toNanoseconds(uint64_t cycles)
    {
        return static_cast<double>(cycles) / cost::kCpuGhz;
    }

  private:
    Shards<RelaxedAtomic<uint64_t>> cycles_;
};

} // namespace cubicleos::hw

#endif // CUBICLEOS_HW_CYCLES_H_
