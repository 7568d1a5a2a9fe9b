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
 * (Monitor::inFlightSlot) is non-zero, the monitor reclaims
 * windows, grants, pages and the logical key, then marks the cubicle
 * kDead. restartCubicle reloads the image through the verify cache and
 * replays the grants recorded at destroy time (RevokedGrant).
 *
 * Tracing: CUBICLEOS_TRACE=lifecycle logs destroy/restart/unwind events
 * to stderr (core/trace.h; combine with faults,evictions or use all).
 */

#ifndef CUBICLEOS_CORE_LIFECYCLE_H_
#define CUBICLEOS_CORE_LIFECYCLE_H_

#include <cstdint>
#include <vector>

#include "core/ids.h"

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
 * One grant a dying cubicle held on somebody else's window, recorded
 * by destroyCubicle so restartCubicle can replay it. Destroy clears
 * the victim's ACL bit (plus its usage/prestage mask bits — the audit
 * must not credit a dead peer) from every live window of every other
 * owner; restart re-opens exactly the recorded set, restores the
 * recorded masks, and re-runs the prestage sweep for windows that had
 * a standing hint. Windows *owned* by the victim are not recorded:
 * they are destroyed outright and the component's init() re-creates
 * them, exactly as at first boot.
 */
struct RevokedGrant {
    Wid wid = kInvalidWindow;
    Cid owner = kNoCubicle; ///< window owner (sanity check at replay)
    /** Bit k set: the victim held usage record UsageKind k at destroy. */
    uint8_t usage = 0;
};

/**
 * Per-cubicle lifecycle bookkeeping, owned by the monitor and guarded
 * by its lifecycleMutex_ (LockRank::kLifecycle — above every other
 * monitor lock, so destroy/restart can take the rest of the hierarchy
 * underneath it).
 */
struct LifecycleRecord {
    /**
     * The static physical tag the cubicle held before death, or -1
     * for dynamically-tagged cubicles. Physical keys can never be
     * returned to hw::Mpk (the allocator is monotonic, mirroring how
     * scarce real pkeys are), so a restart reuses the saved key
     * instead of allocating a fresh one.
     */
    int staticKey = -1;
    /** Completed destroy/restart cycles (trace + test introspection). */
    uint64_t generation = 0;
    /** Grants on other owners' windows to replay at restart. */
    std::vector<RevokedGrant> revoked;
};

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_LIFECYCLE_H_
