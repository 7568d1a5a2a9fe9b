/**
 * @file
 * Cubicle descriptors: spatial memory isolation units (paper §3).
 *
 * Each component is loaded into its own cubicle containing its code,
 * global data, heap and per-thread stacks. Isolated cubicles map to one
 * MPK protection key each; shared cubicles (small, stateless helpers such
 * as LIBC) use a common key readable from every cubicle and execute with
 * their caller's privileges.
 */

#ifndef CUBICLEOS_CORE_CUBICLE_H_
#define CUBICLEOS_CORE_CUBICLE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/ids.h"
#include "core/lifecycle.h"
#include "core/locking.h"
#include "core/window.h"
#include "hw/mpk.h"
#include "hw/relaxed_atomic.h"
#include "mem/arena.h"
#include "mem/suballoc.h"

namespace cubicleos::core {

/**
 * Runtime state of one cubicle.
 *
 * Created by the loader; owned by the monitor. Untrusted code never holds
 * a Cubicle pointer — it interacts through the System facade.
 *
 * Concurrency: id/name/kind/staticKey and the page ranges are
 * immutable after loadComponent publishes the cubicle, so any thread
 * may read them without locking. pkey changes only at destroy and
 * restart for statically-tagged cubicles, but under tag virtualisation
 * a dynamic cubicle's pkey is rewritten by eviction/re-binding
 * (Monitor::ensureResident), so it is a relaxed atomic — readers
 * racing a rebind see either the old or the new tag, and both are safe
 * (the stale one merely faults and retries; see DESIGN.md §14).
 * Remaining mutable state is split per concern so
 * cubicles never contend with each other: the stack arena cursor under
 * stackMu, the heap sub-allocator under heapMu, the window-descriptor
 * arrays under the monitor's window lock, and extraAllow as an atomic
 * PKRU image (see monitor.h for the lock hierarchy).
 */
struct Cubicle {
    Cid id = kNoCubicle;
    std::string name;
    CubicleKind kind = CubicleKind::kIsolated;

    /**
     * Physical MPK tag currently backing this cubicle (shared key for
     * shared cubicles, parked key while evicted or dead). The only
     * record of which pool tag backs a dynamic cubicle: written by the
     * loader before publication, by restart for a static cubicle, and
     * otherwise only by the monitor under the exclusive window lock
     * (fault-in, eviction, destroy); read lock-free everywhere.
     */
    hw::RelaxedAtomic<int> pkey{-1};

    /**
     * The tag the loader gave this cubicle for good (its own key, or
     * the shared key), or -1 when it found the physical tags exhausted
     * under tag virtualisation and tagged it dynamically. Immutable
     * after load: destroy parks pkey and restart restores it from here.
     */
    int staticKey = -1;

    /**
     * Completed destroy/restart cycles. Written by restart under the
     * monitor's lifecycle lock; read lock-free (Monitor::lifeGeneration).
     */
    hw::RelaxedAtomic<uint64_t> generation{0};

    /**
     * Lifecycle state (DESIGN.md §15). kLive from publication until
     * destroyCubicle marks it kDraining; kDead once reclaimed;
     * restartCubicle flips it back to kLive. Deliberately std::atomic
     * (seq_cst), not RelaxedAtomic: the quiesce handshake — an
     * entering thread increments its in-flight count
     * (Monitor::inFlightSlot) *then* checks life, the destroyer stores
     * kDraining *then* reads every in-flight count — relies on a total
     * order over those operations; with relaxed ordering both sides
     * could miss each other (store-buffering) and a thread would enter
     * a cubicle being reclaimed.
     */
    std::atomic<uint8_t> life{static_cast<uint8_t>(LifeState::kLive)};

    /** LRU clock value of the last cross-call into this cubicle. */
    hw::RelaxedAtomic<uint64_t> lastUse{0};

    /** Times this cubicle faulted back in after eviction. */
    hw::RelaxedAtomic<uint64_t> faultIns{0};

    /** Code image pages (execute-only after load). */
    mem::PageRange codeRange;

    /** Global data pages. */
    mem::PageRange globalRange;

    /**
     * Guards stackUsed (StackFrame save/alloc/restore). LockRank
     * kCubicle; the loader rebinds the order key to the cubicle id at
     * publication (setOrderKey), so lockdep enforces the cid-order
     * rule below.
     */
    mutable Mutex stackMu{LockRank::kCubicle, "cubicle.stack"};
    /** Per-cubicle stack pages with a bump offset (see StackFrame). */
    mem::PageRange stackRange;
    std::size_t stackUsed GUARDED_BY(stackMu) = 0;

    /**
     * Guards the heap sub-allocator's free lists. Chunk-source
     * callbacks run under it and may cross-call (e.g. into ALLOC); a
     * callback that heap-allocates in another cubicle would nest two
     * heapMu, so per-cubicle locks must be chained in increasing cid
     * order — machine-checked by lockdep via the same-rank order key
     * (in-tree chunk sources only ever take the leaf pageMutex_).
     */
    mutable Mutex heapMu{LockRank::kCubicle, "cubicle.heap"};
    /**
     * Fine-grained heap backed by pages tagged with this cubicle's
     * key. The pointer itself is written once by the loader before
     * publication; the allocator behind it is only used under heapMu.
     */
    std::unique_ptr<mem::HeapAllocator> heap PT_GUARDED_BY(heapMu);

    /** The per-cubicle window descriptor arrays. */
    WindowTable windows;

    /**
     * Extra PKRU grants from hot windows opened for this cubicle
     * (merged into pkruFor's result at every switch). Written by
     * window open/close under the monitor's window lock; read
     * lock-free by every permission switch, hence atomic.
     */
    hw::AtomicPkru extraAllow;

    bool isolated() const { return kind == CubicleKind::kIsolated; }

    /**
     * Whether the cubicle shares the dynamic tag pool and may be
     * evicted (Monitor::ensureResident binds it a pool tag on demand).
     */
    bool dynamicTag() const { return staticKey < 0; }
};

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_CUBICLE_H_
