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
 * parks its pkey (freeing a pool tag; a static tag comes back from
 * Cubicle::staticKey at restart), returns its pages to the pool, which
 * zeroes them, then marks it kDead. restartCubicle reloads the image
 * through the verify cache and counts Cubicle::generation. No grant
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

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_LIFECYCLE_H_
