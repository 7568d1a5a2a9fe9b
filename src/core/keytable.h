/**
 * @file
 * The dynamic key table: tag virtualisation bookkeeping.
 *
 * With SystemConfig::virtualizeTags the loader tags every isolated
 * cubicle dynamically (Cubicle::dynamicTag) once the static physical
 * tags run out. This table records which of the reserved *dynamic*
 * physical tags currently backs which such cubicle; the monitor
 * multiplexes the rest BULKHEAD-style — LRU eviction parks a victim's
 * pages under the reserved parked tag, the next touch faults the
 * cubicle back in through Monitor::handleFault.
 *
 * The table is bookkeeping only: it never touches page tables or PKRU
 * state itself (the monitor owns the retag sweeps, see
 * Monitor::ensureResident). All mutation happens under
 * Monitor::keyMutex_ (rank kKeyTable, core/locking.h); like
 * WindowTable, the guard lives in a different object, so the relation
 * is enforced at runtime via bindGuard + lockdep instead of a
 * GUARDED_BY annotation.
 */

#ifndef CUBICLEOS_CORE_KEYTABLE_H_
#define CUBICLEOS_CORE_KEYTABLE_H_

#include <cstdint>
#include <vector>

#include "core/ids.h"
#include "core/locking.h"

namespace cubicleos::core {

/** One dynamic physical tag and the cubicle it currently backs. */
struct KeyBinding {
    int tag = -1;
    Cid cid = kNoCubicle; ///< kNoCubicle = tag is free
};

class KeyTable {
  public:
    /**
     * Binds the table to the cross-object lock that guards it; every
     * later operation asserts (under lockdep) that the calling thread
     * holds it. Bind before publishing the table to other threads.
     */
    void bindGuard(const Mutex *guard) { guard_ = guard; }

    /** Adds a free physical tag to the dynamic pool (boot-time). */
    void addTag(int tag)
    {
        checkGuard();
        slots_.push_back(KeyBinding{tag, kNoCubicle});
    }

    /** Number of physical tags in the dynamic pool. */
    std::size_t poolSize() const
    {
        checkGuard();
        return slots_.size();
    }

    /**
     * Binds @p cid to a free tag if one exists.
     * @return the tag, or -1 when every tag is bound (evict first).
     */
    int bindFree(Cid cid)
    {
        checkGuard();
        for (KeyBinding &s : slots_) {
            if (s.cid == kNoCubicle) {
                s.cid = cid;
                return s.tag;
            }
        }
        return -1;
    }

    /**
     * Rebinds @p tag (currently backing some victim) to @p newCid.
     * @return the previous owner cid.
     */
    Cid rebind(int tag, Cid new_cid)
    {
        checkGuard();
        for (KeyBinding &s : slots_) {
            if (s.tag == tag) {
                const Cid prev = s.cid;
                s.cid = new_cid;
                return prev;
            }
        }
        return kNoCubicle;
    }

    /** Releases @p tag back to the free pool (cubicle teardown). */
    void release(int tag)
    {
        checkGuard();
        for (KeyBinding &s : slots_) {
            if (s.tag == tag)
                s.cid = kNoCubicle;
        }
    }

    /** Snapshot of every slot (for the monitor's LRU victim scan). */
    const std::vector<KeyBinding> &slots() const
    {
        checkGuard();
        return slots_;
    }

  private:
    void checkGuard() const
    {
        if constexpr (lockdep::kEnabled) {
            if (guard_ != nullptr)
                lockdep::assertHeld(guard_, "KeyTable");
        }
    }

    std::vector<KeyBinding> slots_;
    const Mutex *guard_ = nullptr;
};

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_KEYTABLE_H_
