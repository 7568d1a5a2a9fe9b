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
 * owner — touches it again and traps.
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
 *                          hot keys. shared_mutex: faults take it
 *                          shared (❸/❹ are reads), window mutations
 *                          take it exclusive.
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
#include "core/keytable.h"
#include "core/locking.h"
#include "core/stats.h"
#include "core/verifier/report.h"
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
     * tags run out, give further isolated cubicles *logical* keys and
     * multiplex them onto a reserved pool of dynamic physical tags
     * with LRU eviction — evicted cubicles' pages are parked under a
     * reserved tag and fault back in on next touch. Off by default:
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
     * Ensures @p cid's pages are resident under a physical tag,
     * evicting the LRU dynamically-tagged cubicle if the pool is full.
     * No-op (lock-free) when the cubicle is statically tagged or
     * already bound.
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
     * Runs the verifier over exactly the code image the spec carries
     * (linear sweep, then one reachability walk that resolves
     * jump-table, lea/call and entry-table indirect flow; see
     * core/verifier/ipcfg.h) through the process-wide verify cache
     * (core/verifier/cache.h), allocates an MPK key (isolated
     * cubicles), maps code pages execute-only, and sets up globals,
     * the stack arena and the heap sub-allocator. A load that then
     * runs out of pages returns its key and pages before throwing.
     *
     * @throws VerifierError when the image is empty, when a forbidden
     *         sequence is reachable from an entry point, when
     *         unresolved indirect jump flow (or an undecodable
     *         reachable byte) leaves forbidden bytes possibly live,
     *         when an entry point or declared indirect-target table
     *         lies outside the image — all before any key or page is
     *         taken;
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
     *   3. close every window it owns and revoke its ACL bit (plus
     *      usage/prestage mask bits) from every other live window,
     *      recording the revoked set for restart replay; sweep every
     *      page still carrying its tag back to the page owner's tag;
     *      bump the revocation epoch so no grant cache or prestage
     *      hint can touch the reclaimed pages;
     *   4. release its physical tag: a bound dynamic tag returns to
     *      the key table's free pool; a static tag stays reserved for
     *      the restart, which then cannot fail for want of a key nor
     *      take one a later load needed; bump the key epoch (the
     *      PKRU-refresh IPI analogue);
     *   5. return its heap chunks and code/global/stack pages to the
     *      page allocator; mark kDead.
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
     * hits and skips the sweep + CFG walk, which is what makes restart
     * cheap), reallocates code/global/stack/heap under the saved
     * static tag (or re-parks a dynamically-tagged cubicle until first
     * touch), and replays the grants recorded at destroy time —
     * including standing prestage hints. The caller is responsible for
     * re-running the component's init() (see System::restartComponent).
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

    /** Completed destroy/restart cycles of @p cid. */
    uint64_t lifeGeneration(Cid cid) const;

    Cubicle &cubicle(Cid cid);
    const Cubicle &cubicle(Cid cid) const;
    std::size_t cubicleCount() const
    {
        return cubicleCount_.load(std::memory_order_acquire);
    }

    /**
     * The verifier report for @p cid's image, recorded at load time
     * (including report-only embedded findings that did not block the
     * load).
     */
    const verifier::VerifierReport &verifierReport(Cid cid) const;

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

    /** cubicle_window_init: creates an empty window owned by @p caller. */
    Wid windowInit(Cid caller);
    /** cubicle_window_add: associates [ptr, ptr+size) with @p wid. */
    void windowAdd(Cid caller, Wid wid, const void *ptr, std::size_t size);
    /** cubicle_window_remove: removes the range starting at @p ptr. */
    void windowRemove(Cid caller, Wid wid, const void *ptr);
    /** cubicle_window_open: allows @p peer to access @p wid's contents. */
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
     * @throws WindowError if the hardware keys are exhausted.
     */
    void windowSetHot(Cid caller, Wid wid);

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
     * @return the number of pages retagged.
     */
    std::size_t windowPrestage(Cid caller, Wid wid, Cid peer,
                               hw::Access expected);

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
    bool handleFault(const hw::Fault &fault, Cid accessor,
                     IsolationMode mode);

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

    /** Returns pages to the pool. */
    void freePages(const mem::PageRange &range);

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
     * The calling thread's shard of @p cid's in-flight count: threads
     * executing inside @p cid via a cross-call. CrossCallGuard
     * increments it *then* checks Cubicle::life, and decrements it on
     * leaving; destroyCubicle stores kDraining *then* waits for every
     * shard's count to read zero. seq_cst, paired with life.
     */
    std::atomic<uint32_t> &inFlightSlot(Cid cid)
    {
        return inFlight_.local()[cid];
    }

    Window &windowChecked(Cid caller, Wid wid, const char *op)
        REQUIRES(windowMutex_);

    /**
     * windowDestroy's body without the lock: hot-key sweep back to the
     * owner's tag, extraAllow revocation, range removal, slot free.
     * Shared between the public windowDestroy and destroyCubicle.
     */
    void destroyWindowLocked(Cid owner, Wid wid) REQUIRES(windowMutex_);

    /** Image validation + verify-cache run shared by load and restart. */
    verifier::VerifierReport verifyImage(const ComponentSpec &spec);

    /** Allocates code/global/stack + heap for @p cub (load/restart). */
    void provisionCubicle(Cubicle &cub, const ComponentSpec &spec);
    void bumpEpoch() REQUIRES(windowMutex_)
    {
        windowEpoch_.fetch_add(1, std::memory_order_seq_cst);
    }

    /**
     * Evicts the LRU dynamically-tagged cubicle and returns its tag,
     * now free for re-binding. Sweeps every present page still tagged
     * with the victim's tag — the victim's own pages *and* pages it
     * was granted through windows — to the parked tag, and bumps both
     * the revocation epoch (cached grants must not touch parked
     * pages) and the key epoch.
     */
    int evictLocked() REQUIRES(windowMutex_, keyMutex_);

    /**
     * Restores @p cid's pages from the parked tag to @p tag and
     * replays standing prestage hints on its live windows.
     * @return pages restored.
     */
    std::size_t faultInLocked(Cid cid, int tag)
        REQUIRES(windowMutex_, keyMutex_);

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
     * chunked) to @p peer_key. With @p only_parked, restricted to
     * currently parked pages — the fault-in prestage replay.
     * @return pages retagged.
     */
    std::size_t prestageSweep(Cid owner, Wid wid, uint8_t peer_key,
                              bool only_parked) REQUIRES(windowMutex_);

    SystemConfig cfg_;
    Stats *stats_;
    hw::CycleClock clock_;
    hw::AddressSpace space_;
    hw::Mpk mpk_;
    mem::PageMetaMap meta_;
    mem::PageAllocator pageAlloc_ GUARDED_BY(pageMutex_);
    int sharedKey_;
    int parkedKey_ = -1;

    /** Logical→physical bindings for dynamically-tagged cubicles. */
    KeyTable keys_; // guarded by keyMutex_ (bindGuard + lockdep)
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
     * loader → window → key → cubicle → page underneath it, and no
     * code path ever acquires it while holding another monitor lock.
     */
    mutable Mutex lifecycleMutex_{LockRank::kLifecycle,
                                  "monitor.lifecycle"};
    mutable Mutex loaderMutex_
        ACQUIRED_AFTER(lifecycleMutex_){LockRank::kLoader,
                                        "monitor.loader"};
    mutable SharedMutex windowMutex_
        ACQUIRED_AFTER(loaderMutex_){LockRank::kWindow, "monitor.window"};
    /**
     * Serialises key-table bind/evict decisions. Rank kKeyTable sits
     * between kWindow and kCubicle: eviction runs under the exclusive
     * window lock (its page sweep must not race the fault handler's
     * window walk, and it bumps the revocation epoch), and never takes
     * per-cubicle or page locks (the sweep is an atomic tag store).
     */
    mutable Mutex keyMutex_
        ACQUIRED_AFTER(windowMutex_){LockRank::kKeyTable, "monitor.keys"};
    mutable Mutex pageMutex_
        ACQUIRED_AFTER(keyMutex_){LockRank::kPage, "monitor.page"};

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
     * Per-window peer masks, indexed by UsageKind. kUsedRead/kUsedWrite
     * are the dataflow history for the least-privilege audit
     * (audit::auditWiring): which peers actually faulted a read or
     * a write through the window; hot windows never fault and therefore
     * stay blank (the audit's documented blind spot). kPrestagedRead/
     * kPrestagedWrite are the peers with a standing prestage hint,
     * recorded by windowPrestage; fault-in replays these so a hint
     * survives its pages being parked by an eviction (the grant layer
     * declared the access once; the monitor keeps the declaration,
     * DESIGN.md §14). Parallel to windows_; slots are reset when
     * windowInit recycles a descriptor. The masks are relaxed atomics
     * so the fault path can record usage under the shared window lock.
     */
    using WindowUsage = std::array<AtomicAclMask, kUsageKinds>;
    std::vector<WindowUsage> windowUsage_ GUARDED_BY(windowMutex_);

    /** Load-time verifier reports, parallel to cubicles_ (same
     *  pre-reserved append-only publication scheme). */
    std::vector<verifier::VerifierReport> loadReports_;

    /**
     * Per-cubicle lifecycle bookkeeping (saved static key, revoked
     * grants to replay, generation), parallel to cubicles_. Grown at
     * load under loaderMutex_; the record contents are only touched by
     * destroy/restart under lifecycleMutex_.
     */
    std::vector<LifecycleRecord> lifeRecords_;

    /**
     * In-flight counts, [shard][cid] (see inFlightSlot). Sharded per
     * thread so cross-calls into one cubicle from several cores do not
     * share a cache line (DESIGN.md §9).
     */
    hw::Shards<std::array<std::atomic<uint32_t>, kMaxCubicles>> inFlight_;
};

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_MONITOR_H_
