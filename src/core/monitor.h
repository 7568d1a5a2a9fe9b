/**
 * @file
 * The trusted memory monitor (paper §4, §5.3) and cubicle loader (§5.4).
 *
 * The monitor bootstraps the system and enforces cubicle isolation and
 * window access permissions. It owns the simulated address space, the
 * MPK key allocator, the page metadata map and the page pool, plus the
 * cubicle and window tables. Its central operation is the lazy
 * trap-and-map fault handler:
 *
 *   ❶ a cross-cubicle access faults (simulated MPK check fails);
 *   ❷ the faulting page's metadata yields its owner and type in O(1);
 *   ❸ the owner's window-descriptor array for that type is searched
 *     for a range containing the address (sorted interval index);
 *   ❹ the window's ACL bitmask is indexed by the accessor's cubicle ID;
 *   ❺ on success the page's MPK tag is reassigned to the accessor.
 *
 * Closing a window does not retag pages (causal tag consistency, §5.6):
 * the page keeps its tag until a cubicle with access — including the
 * owner — touches it again and traps. Two eager paths share steps
 * ❷–❹ and skip the trap: admit() decides a fault without retagging
 * (System::checkAccess), and the owner-side windowReclaim() hands a
 * window's pages home in one retag, as windowPrestage hands them to a
 * peer.
 *
 * # Lock hierarchy
 *
 * The monitor used to serialise every entry point — loads, window ops,
 * faults, stack bumps, heap chunks — on one mutex, so concurrent
 * cubicles queued behind each other's faults. State is now guarded by
 * scope, acquired strictly in this order (never the reverse). The
 * order is machine-checked: every lock is a core/locking.h wrapper
 * carrying the level's LockRank (validated at runtime by the debug
 * lockdep checker), and the fields each lock protects are GUARDED_BY
 * it (validated at compile time by clang's thread-safety analysis —
 * `tidy-tsa` preset):
 *
 *   1. loaderMutex_      — cubicle/report table growth (loadComponent)
 *   2. windowMutex_      — windows_, per-cubicle WindowTables, ACLs,
 *                          hot keys, and which pool tag a dynamic
 *                          cubicle's pkey holds. shared_mutex: faults
 *                          take it shared (❸/❹ are reads), window
 *                          mutations, fault-in and eviction take it
 *                          exclusive.
 *   3. Cubicle::stackMu / Cubicle::heapMu — per-cubicle arena and heap
 *                          state; cubicles never contend with each
 *                          other. heapMu of different cubicles may
 *                          chain through cross-calling chunk sources
 *                          (acyclic heap-source routing).
 *   4. pageMutex_        — the page pool + metadata assignment (leaf).
 *
 * Lock-free by design (no level): the fault fast paths. Page metadata
 * (owner/type), page-table entries (present/perms/pkey) and each
 * cubicle's published fields are word-atomic, the cubicle table is
 * pre-reserved and append-only behind an atomic count, and the grant
 * commit ❺ is an atomic tag store (hw::AddressSpace::setKeyRange) — so
 * an owner re-faulting its own page, and the whole no-ACL ablation
 * mode, resolve without taking any lock, and System::touch's no-fault
 * check never synchronises at all (like the hardware TLB check).
 *
 * Revocation ordering: windowClose/CloseAll/Remove/Destroy bump
 * windowEpoch_ after mutating the ACL/ranges, which invalidates every
 * thread's grant cache (see System::touch). Revocation remains lazy
 * exactly as §5.6 specifies — pages keep their tags — so a bounded
 * stale-grant window is inherent to the design, not added by the
 * caching.
 */

#ifndef CUBICLEOS_CORE_MONITOR_H_
#define CUBICLEOS_CORE_MONITOR_H_

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/component.h"
#include "core/cubicle.h"
#include "core/errors.h"
#include "core/locking.h"
#include "core/stats.h"
#include "core/window.h"
#include "core/wiring.h"
#include "hw/cycles.h"
#include "hw/mpk.h"
#include "hw/page_table.h"
#include "hw/relaxed_atomic.h"
#include "hw/shards.h"
#include "mem/arena.h"
#include "mem/page_meta.h"
#include "mem/suballoc.h"

namespace cubicleos::core {

/** System-wide configuration knobs. */
struct SystemConfig {
    /** Size of the simulated address space in pages (default 64 MiB). */
    std::size_t numPages = 16384;
    /** Isolation mode (Fig. 6 ablation switch). */
    IsolationMode mode = IsolationMode::kFull;
    /**
     * Tag virtualisation (DESIGN.md §14): when the 16 physical MPK
     * tags run out, tag further isolated cubicles dynamically: they
     * share a reserved pool of physical tags with LRU eviction —
     * evicted cubicles' pages are parked under a reserved tag and
     * fault back in on next touch. Off by default:
     * loading past the hardware limit then fails exactly as before.
     */
    bool virtualizeTags = false;
    /**
     * Physical tags the dynamic pool reserves for virtualised
     * cubicles (only meaningful with virtualizeTags). The rest of the
     * tag space keeps serving statically-tagged cubicles and hot
     * windows.
     */
    std::size_t dynamicTags = 4;
    /**
     * Caps the simulated hardware's physical-tag space below 16
     * (test-only: forces tag pressure with as few as 4 tags;
     * clamped to [2, hw::kNumPhysPkeys]).
     */
    int physTagBudget = hw::kNumPhysPkeys;
    /** Default per-cubicle stack arena size in pages. */
    std::size_t stackPages = 16;
};

/**
 * Trusted memory monitor + cubicle loader.
 *
 * Thread-safety: see the lock-hierarchy note in the file header. Every
 * public entry point is safe to call from any thread after boot;
 * loadComponent additionally serialises against itself.
 */
class Monitor {
  public:
    explicit Monitor(const SystemConfig &cfg, Stats *stats);

    Monitor(const Monitor &) = delete;
    Monitor &operator=(const Monitor &) = delete;

    hw::AddressSpace &space() { return space_; }
    const hw::AddressSpace &space() const { return space_; }
    hw::Mpk &mpk() { return mpk_; }
    hw::CycleClock &clock() { return clock_; }
    mem::PageMetaMap &pageMeta() { return meta_; }
    const SystemConfig &config() const { return cfg_; }

    /** MPK key shared by all shared cubicles' static data. */
    int sharedKey() const { return sharedKey_; }

    /**
     * The reserved "parked" physical tag evicted cubicles' pages are
     * swept to, or -1 when tag virtualisation is off. No cubicle's
     * PKRU ever allows it — all parked cubicles share the tag, so
     * allowing it would cross-expose every parked cubicle; any access
     * to a parked page faults into handleFault, which re-binds the
     * owner first (DESIGN.md §14).
     */
    int parkedKey() const { return parkedKey_; }

    /**
     * Monotonic key-binding epoch, bumped on every eviction/re-bind.
     * Models the PKRU-update IPI of a real implementation: threads
     * whose cached PKRU predates the current epoch must recompute it
     * before trusting a permission check (see System::touch).
     */
    uint64_t keyEpoch() const
    {
        return keyEpoch_.load(std::memory_order_seq_cst);
    }

    /**
     * Ensures @p cid's pages are resident under a physical tag: the
     * lowest pool tag no dynamic cubicle's pkey holds, or else the tag
     * of the bound dynamic cubicle with the oldest lastUse, which is
     * evicted. No-op (lock-free) when the cubicle is statically tagged
     * or already bound.
     * @return the physical tag now backing @p cid.
     */
    int ensureResident(Cid cid);

    /**
     * LRU bookkeeping + fault-in hook for a cross-call into @p callee:
     * stamps the LRU clock and, when @p callee is parked, binds it a
     * physical tag (counting a tag miss; hits are counted otherwise).
     * Called by CrossCallGuard before computing the callee's PKRU.
     */
    void noteSwitch(Cid callee);

    // ------------------------------------------------------------------
    // Loader (paper §5.4)
    // ------------------------------------------------------------------

    /**
     * Loads a component into a fresh cubicle.
     *
     * Greps exactly the code image the spec carries for forbidden
     * byte sequences (core/codescan.h) through the process-wide verify
     * cache (core/verifier/cache.h), allocates an MPK key (isolated
     * cubicles), maps code pages execute-only, and sets up globals,
     * the stack arena and the heap sub-allocator. A load that then
     * runs out of pages returns its key and pages before throwing.
     *
     * @throws VerifierError when the image is empty, when it holds a
     *         forbidden byte sequence anywhere, when an entry point or
     *         declared indirect-target table lies outside the image —
     *         all before any key or page is taken;
     *         LoaderError on key or table exhaustion; OutOfMemory
     *         when the code, global or stack pages do not fit.
     */
    Cid loadComponent(const ComponentSpec &spec);

    // ------------------------------------------------------------------
    // Lifecycle (DESIGN.md §15)
    // ------------------------------------------------------------------

    /**
     * Kills cubicle @p cid and reclaims everything it held, while the
     * rest of the deployment keeps serving.
     *
     * Crash semantics: no component teardown hook runs here — the
     * cubicle is treated exactly like a crashed process. The sequence:
     *
     *   1. mark kDraining: CrossCallGuard refuses new entries with
     *      PeerFault, and every checked access (touch/heap) by a
     *      thread already inside throws PeerFault, unwinding it;
     *   2. quiesce: wait until every shard's in-flight count for the
     *      cubicle (inFlightSlot) reads zero;
     *   3. destroy every window it owns; sweep every page of another
     *      owner still carrying its tag back to that owner's tag; bump
     *      the revocation epoch so no grant cache can touch the
     *      reclaimed pages. Its bits in other owners' ACLs (and the
     *      hot-window keys in its extraAllow that mirror them) stay:
     *      the ACL is the only grant record, and a dead cubicle
     *      executes nothing for them to authorise;
     *   4. park its pkey: a bound dynamic tag is then free for the
     *      pool, as no cubicle's pkey holds it; a static tag is never
     *      freed, so the restart, which takes it back from
     *      Cubicle::staticKey, cannot fail for want of a key nor take
     *      one a later load needed; bump the key epoch (the
     *      PKRU-refresh IPI analogue);
     *   5. return its heap chunks and code/global/stack pages to the
     *      page allocator, which zeroes them; mark kDead.
     *
     * Parked (tag-evicted) cubicles are destroyed in place: their
     * pages are reclaimed under the parked tag without faulting the
     * cubicle back in.
     *
     * @return pages reclaimed (also counted in Stats::reclaimedPages).
     * @throws LoaderError on an unknown, shared, or non-live cubicle.
     */
    std::size_t destroyCubicle(Cid cid);

    /**
     * Relaunches a destroyed cubicle in place: re-verifies the image
     * through the process-wide verify cache (a content-identical image
     * hits and skips the grep, which is what makes restart cheap),
     * reallocates code/global/stack/heap under Cubicle::staticKey (a
     * dynamically-tagged cubicle stays parked until first touch) and
     * counts a generation. Nothing is replayed: the cubicle regains exactly the
     * grants its peers' window ACLs name now, which destroy left in
     * place and the owners may have changed since. The caller is
     * responsible for re-running the component's init() (see
     * System::restartComponent).
     * @throws LoaderError unless the cubicle is kDead; VerifierError
     *         as in loadComponent.
     */
    void restartCubicle(Cid cid, const ComponentSpec &spec);

    /** Lock-free: true while @p cid is kLive (unknown cids are not). */
    bool cubicleAlive(Cid cid) const
    {
        if (cid >= cubicleCount())
            return false;
        return static_cast<LifeState>(cubicles_[cid]->life.load()) ==
               LifeState::kLive;
    }

    /** Lifecycle state of @p cid (lock-free snapshot). */
    LifeState lifeState(Cid cid) const
    {
        return static_cast<LifeState>(cubicles_[cid]->life.load());
    }

    /** Completed destroy/restart cycles of @p cid (lock-free). */
    uint64_t lifeGeneration(Cid cid) const
    {
        return cubicle(cid).generation;
    }

    Cubicle &cubicle(Cid cid);
    const Cubicle &cubicle(Cid cid) const;
    std::size_t cubicleCount() const
    {
        return cubicleCount_.load(std::memory_order_acquire);
    }

    /**
     * Plain-data snapshot of the current wiring — cubicle table and
     * live windows (core/wiring.h). Exports are appended by
     * System::wiringSnapshot, which owns the export registry.
     */
    WiringSnapshot snapshotWiring() const;

    /** Computes the PKRU register value for a thread running in @p cid. */
    hw::Pkru pkruFor(Cid cid) const;

    // ------------------------------------------------------------------
    // Window API (paper Table 1); @p caller is the invoking cubicle
    // ------------------------------------------------------------------

    /**
     * cubicle_window_init: creates an empty window owned by @p caller.
     * @throws WindowError unless @p caller is a loaded cubicle.
     */
    Wid windowInit(Cid caller);
    /** cubicle_window_add: associates [ptr, ptr+size) with @p wid. */
    void windowAdd(Cid caller, Wid wid, const void *ptr, std::size_t size);
    /** cubicle_window_remove: removes the range starting at @p ptr. */
    void windowRemove(Cid caller, Wid wid, const void *ptr);
    /**
     * cubicle_window_open: allows @p peer to access @p wid's contents.
     * @throws WindowError when @p peer is a shared cubicle: its key is
     *         in every cubicle's PKRU, so a page granted to it would be
     *         readable by all of them.
     */
    void windowOpen(Cid caller, Wid wid, Cid peer);
    /** cubicle_window_close: disallows @p peer. Lazy: no retagging. */
    void windowClose(Cid caller, Wid wid, Cid peer);
    /** cubicle_window_close_all: clears the whole ACL. */
    void windowCloseAll(Cid caller, Wid wid);
    /** cubicle_window_destroy: removes all ranges and frees @p wid. */
    void windowDestroy(Cid caller, Wid wid);

    /**
     * Promotes @p wid to a hot window (paper §8: window-specific
     * tags): allocates a dedicated MPK key, eagerly tags the window's
     * pages with it, and folds the key into the PKRU of the owner and
     * every cubicle currently in the ACL. Subsequent opens/closes
     * update PKRU masks instead of relying on trap-and-map.
     * @return whether the window has a dedicated key: false under tag
     *         virtualisation once the keys are spent, where the window
     *         stays an ordinary trap-and-map window.
     * @throws WindowError if the hardware keys are exhausted without
     *         tag virtualisation.
     */
    bool windowSetHot(Cid caller, Wid wid);

    /**
     * Prestaging hint (eager trap-and-map): retags @p wid's ranges to
     * @p peer's key now, instead of lazily at @p peer's first-touch
     * fault. @p peer must already be in the window's ACL — the hint
     * never widens rights, it only moves the grant's step ❺ from
     * fault time to open time, so a prestaged access is exactly as
     * authorised as a faulted one. Per-page owner intersection and the
     * retag chunk cap apply as in handleFault. The hint counts as
     * exercised usage for the least-privilege audit: declaring
     * expected access *is* the usage declaration (same contract as
     * hot windows, which never fault either).
     *
     * One-shot: nothing is recorded for later. A peer that is parked
     * (or evicted afterwards) takes the pages by trap-and-map on its
     * next touch; a peer that is not live gets nothing, and no usage.
     *
     * @return the number of pages retagged (0 for a hot window, a
     *         parked peer or a peer that is not live).
     */
    std::size_t windowPrestage(Cid caller, Wid wid, Cid peer,
                               hw::Access expected);

    /**
     * Hand-back, the owner-side mirror of windowPrestage: retags the
     * owner's pages in @p wid's ranges that carry another tag back to
     * the owner's current key in one sweep (re-binding a parked owner
     * first), where the owner's next touch would fault them home. No
     * effect on hot windows. Counted in Stats::handBacks, not retags.
     * @return the number of pages retagged.
     */
    std::size_t windowReclaim(Cid caller, Wid wid);

    /** Returns the ACL of a window (introspection for tests/tools). */
    AclMask windowAcl(Wid wid) const;

    /**
     * Monotonic revocation epoch. Bumped by every operation that can
     * shrink a grant (close, closeAll, remove, destroy); per-thread
     * grant caches compare their entries' epoch against it and fall
     * back to the fault path on mismatch.
     */
    uint64_t windowEpoch() const
    {
        return windowEpoch_.load(std::memory_order_seq_cst);
    }

    // ------------------------------------------------------------------
    // Trap-and-map (paper §5.3, Fig. 4)
    // ------------------------------------------------------------------

    /**
     * Attempts to resolve a protection fault taken by @p accessor.
     *
     * Lock-free when the accessor owns the page (or in no-ACL mode);
     * otherwise takes windowMutex_ shared for the window walk and
     * commits the grant with an atomic tag store, so concurrent faults
     * in different cubicles resolve in parallel.
     *
     * @return true if the page was retagged and the access may be
     *         retried; false if this is a genuine isolation violation.
     */
    bool handleFault(const hw::Fault &fault, Cid accessor);

    /**
     * Admission without the trap: decides @p fault exactly as
     * handleFault would (and records the same exercised usage), but
     * charges no trap and moves no tag.
     * @return one past the last page the decision admits, or 0 when
     *         handleFault would refuse.
     */
    std::size_t admit(const hw::Fault &fault, Cid accessor)
    {
        return resolveFault(fault, accessor, /*commit=*/false);
    }

    // ------------------------------------------------------------------
    // Memory management for cubicles
    // ------------------------------------------------------------------

    /**
     * Allocates @p n pages for cubicle @p cid, tagged with its key and
     * typed @p type in the metadata map.
     */
    mem::PageRange allocPagesFor(Cid cid, std::size_t n,
                                 mem::PageType type,
                                 uint8_t perms = hw::kPermRead |
                                                 hw::kPermWrite);

    /**
     * Returns @p owner's heap pages to the pool, zeroed. Frees nothing
     * unless every page of @p range lies in the space and is a heap
     * page of @p owner, so a caller cannot free another cubicle's
     * pages, code, stacks, free pages or pages past the end of the
     * space through it.
     * @return whether the range was freed.
     */
    bool freePages(const mem::PageRange &range, Cid owner);

    /** Bump-allocates @p size bytes from @p cid's stack arena. */
    std::byte *stackAlloc(Cid cid, std::size_t size, std::size_t align);
    /** Current stack offset (for StackFrame save/restore). */
    std::size_t stackOffset(Cid cid) const;
    /** Restores the stack offset to @p saved. */
    void stackRestore(Cid cid, std::size_t saved);

    /** Free pages remaining in the monitor's pool. */
    std::size_t freePageCount() const
    {
        MutexLock lock(pageMutex_);
        return pageAlloc_.freePageCount();
    }

  private:
    friend class CrossCallGuard;
    /** The lockdep death tests seed hierarchy violations through it. */
    friend struct MonitorTestPeer;

    /**
     * The calling thread's slot of @p cid's in-flight count: threads
     * executing inside @p cid via a cross-call. CrossCallGuard
     * increments it (seq_cst, paired with life) *then* checks
     * Cubicle::life, and on leaving stores the decrement (release: the
     * thread is the slot's only writer); destroyCubicle stores
     * kDraining *then* waits for every slot's count to read zero.
     */
    std::atomic<uint32_t> &inFlightSlot(Cid cid)
    {
        return inFlight_.local()[cid];
    }

    Window &windowChecked(Cid caller, Wid wid, const char *op)
        REQUIRES(windowMutex_);

    /**
     * Trap-and-map steps ❷–❹, the decision handleFault and admit
     * share: the faulting page's owner, the owner's window covering
     * it, the ACL check and the usage record. With @p commit it also
     * takes step ❺ and retags the admitted run to @p accessor.
     * @return one past the last page of the admitted run, or 0 when
     *         the fault is a genuine isolation violation.
     */
    std::size_t resolveFault(const hw::Fault &fault, Cid accessor,
                             bool commit);

    /**
     * windowDestroy's body without the lock: hot-key sweep back to the
     * owner's tag, extraAllow revocation, range removal, slot free.
     * Shared between the public windowDestroy and destroyCubicle.
     */
    void destroyWindowLocked(Cid owner, Wid wid) REQUIRES(windowMutex_);

    /** Image validation + verify-cache grep shared by load and restart. */
    void verifyImage(const ComponentSpec &spec);

    /** Allocates code/global/stack + heap for @p cub (load/restart). */
    void provisionCubicle(Cubicle &cub, const ComponentSpec &spec);

    /**
     * Returns @p range to the pool, which zeroes it, and counts the
     * pages in Stats::scrubbedPages.
     * @return whether the range was freed.
     */
    bool freeRunLocked(const mem::PageRange &range) REQUIRES(pageMutex_);
    void bumpEpoch() REQUIRES(windowMutex_)
    {
        windowEpoch_.fetch_add(1, std::memory_order_seq_cst);
    }

    /**
     * Parks @p victim, a bound dynamic cubicle, and returns its tag,
     * now free for re-binding. Sweeps every present page still tagged
     * with the victim's tag — the victim's own pages *and* pages it
     * was granted through windows — to the parked tag, and bumps both
     * the revocation epoch (cached grants must not touch parked pages)
     * and the key epoch.
     */
    int evictLocked(Cubicle &victim) REQUIRES(windowMutex_);

    /**
     * Restores @p cid's own pages from the parked tag to @p tag. Pages
     * of other owners that its eviction parked stay parked until it
     * touches them, which traps them over through its windows' ACLs.
     * @return pages restored.
     */
    std::size_t faultInLocked(Cid cid, int tag) REQUIRES(windowMutex_);

    /**
     * Every present page whose tag is @p from becomes @p to, in
     * chunked runs over the groups the key summary flags for @p from
     * (it clears those flags). Stores the entries the walk covered in
     * @p examined when given. Returns pages retagged.
     */
    std::size_t sweepTag(int from, int to,
                         std::size_t *examined = nullptr);

    /**
     * The page-run retag every sweep shares: each maximal run of pages
     * in [first,end) with @p wants(p) true and the same @p keyFor(p),
     * capped at kRetagChunkPages, becomes one setKeyRange to that key,
     * counted as one Stats retag when @p count.
     * @return pages retagged.
     */
    template <typename Wants, typename KeyFor>
    std::size_t retagRuns(std::size_t first, std::size_t end, Wants wants,
                          KeyFor keyFor, bool count);

    /**
     * Eagerly retags window @p wid's ranges (owner ∩ not-peer-tagged,
     * chunked) to @p peer_key: a peer's for a prestage, the owner's
     * for a hand-back, the window's own for a hot-window add.
     * @return pages retagged.
     */
    std::size_t prestageSweep(Cid owner, Wid wid, uint8_t peer_key)
        REQUIRES(windowMutex_);

    SystemConfig cfg_;
    Stats *stats_;
    hw::CycleClock clock_;
    hw::AddressSpace space_;
    hw::Mpk mpk_;
    mem::PageMetaMap meta_;
    mem::PageAllocator pageAlloc_ GUARDED_BY(pageMutex_);
    int sharedKey_;
    int parkedKey_ = -1;
    /**
     * Bit t set when physical tag t is in the dynamic pool; fixed by
     * the constructor. Which cubicle a pool tag backs is recorded only
     * in that cubicle's pkey.
     */
    uint32_t poolTags_ = 0;
    std::atomic<uint64_t> keyEpoch_{0};
    /** LRU clock: stamped into Cubicle::lastUse on every switch. */
    std::atomic<uint64_t> useClock_{0};

    // Locks, in acquisition order (see the file-header hierarchy).
    // Declared before the cubicle table: cubicle heap destructors
    // return chunks through callbacks that lock pageMutex_, so it must
    // outlive them.
    /**
     * Serialises destroy/restart against each other. Rank kLifecycle
     * sits above the whole hierarchy: a lifecycle operation walks
     * loader → window → cubicle → page underneath it, and no
     * code path ever acquires it while holding another monitor lock.
     */
    mutable Mutex lifecycleMutex_{LockRank::kLifecycle,
                                  "monitor.lifecycle"};
    mutable Mutex loaderMutex_
        ACQUIRED_AFTER(lifecycleMutex_){LockRank::kLoader,
                                        "monitor.loader"};
    mutable SharedMutex windowMutex_
        ACQUIRED_AFTER(loaderMutex_){LockRank::kWindow, "monitor.window"};
    mutable Mutex pageMutex_
        ACQUIRED_AFTER(windowMutex_){LockRank::kPage, "monitor.page"};

    /**
     * Append-only, pre-reserved to kMaxCubicles so readers index it
     * without locking: elements never move, and cubicleCount_'s
     * release/acquire pair publishes each new entry. Deliberately NOT
     * GUARDED_BY(loaderMutex_): the fault/cross-call paths read it
     * lock-free through the publication protocol, which thread-safety
     * analysis cannot express (growth is serialised by loaderMutex_).
     */
    std::vector<std::unique_ptr<Cubicle>> cubicles_;
    std::atomic<std::size_t> cubicleCount_{0};

    std::vector<Window> windows_ GUARDED_BY(windowMutex_);
    std::atomic<uint64_t> windowEpoch_{0};

    /**
     * Per-window dataflow history for the least-privilege audit
     * (audit::auditWiring): the peers that faulted, were admitted or
     * were prestaged for a read or a write through the window. Hot
     * windows never fault and therefore stay blank (the audit's
     * documented blind spot). Parallel to windows_; reset when
     * windowInit recycles a descriptor. The masks are relaxed atomics
     * so the fault path can record usage under the shared window lock.
     */
    struct WindowUsage {
        AtomicAclMask read;
        AtomicAclMask write;
    };
    std::vector<WindowUsage> windowUsage_ GUARDED_BY(windowMutex_);

    /**
     * In-flight counts, [slot][cid] (see inFlightSlot). One slot per
     * live thread, so cross-calls into one cubicle from several cores
     * do not share a cache line (DESIGN.md §9).
     */
    hw::Shards<std::array<std::atomic<uint32_t>, kMaxCubicles>> inFlight_;
};

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_MONITOR_H_
