/**
 * @file
 * Cubicle lifecycle: crash isolation, resource reclaim, hot-restart
 * (DESIGN.md §15).
 *
 * The paper's pitch is that a faulty component must not take down the
 * library OS — this header holds the vocabulary for what happens
 * *after* the fault. A cubicle moves through three states:
 *
 *   kLive ──destroyCubicle──▶ kDraining ──reclaim──▶ kDead
 *     ▲                                                │
 *     └────────────────restartCubicle─────────────────┘
 *
 * kDraining quiesces in-flight cross-calls: CrossCallGuard refuses new
 * entries with core::PeerFault, and threads already inside are unwound
 * by the next checked access (System::touchSlow / heapAlloc) throwing
 * the same. Once no thread's in-flight count for the cubicle
 * (Monitor::inFlightSlot) is non-zero, the monitor destroys the
 * windows the cubicle owns, sweeps its tag off other owners' pages,
 * reclaims its pages and physical tag, then marks it kDead.
 * restartCubicle reloads the image through the verify cache. No grant
 * is recorded or replayed: the cubicle's bits in its peers' window
 * ACLs stay through its death (a dead cubicle executes nothing, so
 * they authorise nothing), and the restart inherits them as the owners
 * last set them.
 *
 * Tracing: CUBICLEOS_TRACE=lifecycle logs destroy/restart/unwind events
 * to stderr (core/trace.h; combine with faults,evictions or use all).
 */

#ifndef CUBICLEOS_CORE_LIFECYCLE_H_
#define CUBICLEOS_CORE_LIFECYCLE_H_

#include <cstdint>

namespace cubicleos::core {

/** Lifecycle state of one cubicle (stored in Cubicle::life). */
enum class LifeState : uint8_t {
    kLive = 0,   ///< serving; cross-calls enter normally
    kDraining,   ///< destroy in progress; entries refused, insiders unwound
    kDead,       ///< reclaimed; only restartCubicle may touch it
};

/** Human-readable state name for traces and errors. */
const char *lifeStateName(LifeState state);

/**
 * Per-cubicle lifecycle bookkeeping, owned by the monitor and guarded
 * by its lifecycleMutex_ (LockRank::kLifecycle — above every other
 * monitor lock, so destroy/restart can take the rest of the hierarchy
 * underneath it).
 */
struct LifecycleRecord {
    /**
     * The static physical tag the cubicle held before death, or -1
     * for dynamically-tagged cubicles. Destroy keeps the key reserved
     * instead of returning it to hw::Mpk, and the restart reuses it:
     * a relaunch then never competes for one of the 16 scarce tags,
     * so it cannot fail on key exhaustion or take a key that a later
     * load or hot window was counting on.
     */
    int staticKey = -1;
    /** Completed destroy/restart cycles (trace + test introspection). */
    uint64_t generation = 0;
};

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_LIFECYCLE_H_
