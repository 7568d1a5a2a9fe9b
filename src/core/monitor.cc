#include "core/monitor.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <thread>

#include "core/lifecycle.h"
#include "core/trace.h"
#include "core/verifier/cache.h"

namespace cubicleos::core {

namespace {

/**
 * Physical keys kept allocatable for hot windows (paper §8) under tag
 * virtualisation: static cubicle tagging stops once only this many
 * keys remain, so the infrastructure's hot windows can still claim
 * dedicated hardware tags. Hot windows requested after the reserve
 * too is spent degrade to ordinary trap-and-map windows instead of
 * failing the boot.
 */
constexpr int kHotKeyReserve = 2;

/** Model the paper's modified-MPK execute semantics. */
constexpr bool kModifiedExecSemantics = true;

/** Heap growth granularity in pages. */
constexpr std::size_t kHeapChunkPages = 16;

/**
 * Upper bound, in pages, on one range-granular retag (trap-and-map
 * step ❺, prestaging, eviction and fault-in sweeps). One fault retags
 * the whole window-range ∩ owner-pages intersection around the
 * faulting address, but never more than this many pages per
 * pkey_mprotect call, so a huge window cannot turn one trap into an
 * unbounded tag sweep. 512 pages = 2 MiB, a huge-page analogue.
 */
constexpr std::size_t kRetagChunkPages = 512;

} // namespace

const char *
isolationModeName(IsolationMode mode)
{
    switch (mode) {
      case IsolationMode::kUnikraft: return "unikraft";
      case IsolationMode::kNoMpk: return "cubicleos-no-mpk";
      case IsolationMode::kNoAcl: return "cubicleos-no-acl";
      case IsolationMode::kFull: return "cubicleos";
    }
    return "unknown";
}

Monitor::Monitor(const SystemConfig &cfg, Stats *stats)
    : cfg_(cfg), stats_(stats), clock_(),
      space_(cfg.numPages, &clock_),
      mpk_(kModifiedExecSemantics, cfg.physTagBudget),
      meta_(cfg.numPages),
      pageAlloc_(&space_, &meta_, /*reserve_first=*/0)
{
    // One key for all shared cubicles' static data; readable everywhere.
    sharedKey_ = mpk_.allocKey();
    assert(sharedKey_ == 1);
    if (cfg_.virtualizeTags) {
        // Reserve the parked tag plus the dynamic pool up front, so
        // the static-tag allocator and hot windows share what remains.
        parkedKey_ = mpk_.allocKey();
        if (parkedKey_ < 0)
            throw LoaderError("virtualizeTags: no physical tag left "
                              "for the parked key");
        keys_.bindGuard(&keyMutex_);
        MutexLock keys(keyMutex_);
        for (std::size_t i = 0; i < cfg_.dynamicTags; ++i) {
            const int tag = mpk_.allocKey();
            if (tag < 0)
                break; // tight budget: smaller pool, more eviction
            keys_.addTag(tag);
        }
        if (keys_.poolSize() == 0)
            throw LoaderError("virtualizeTags: physical-tag budget too "
                              "small for a dynamic pool");
    }
    // Pre-reserve so the tables never reallocate: fault-path readers
    // index them without holding any lock.
    cubicles_.reserve(kMaxCubicles);
    loadReports_.reserve(kMaxCubicles);
    lifeRecords_.reserve(kMaxCubicles);
}

Cid
Monitor::loadComponent(const ComponentSpec &spec)
{
    MutexLock lock(loaderMutex_);

    if (cubicles_.size() >= static_cast<std::size_t>(kMaxCubicles))
        throw LoaderError("too many cubicles for ACL bitmask width");

    // Rule 2 (§5.4): refuse code that could subvert isolation. The
    // verifier walks the CFG from every exported entry point, through
    // direct branches and the indirect flow it can resolve; forbidden
    // sequences an entry path executes block the load, while sequences
    // in payload constants or provably dead code are recorded in the
    // report for audit. An unresolved reachable indirect jump or an
    // undecodable reachable byte proves nothing dead, so then every
    // sequence blocks. The verdict is memoised by image content, so
    // reloading an identical image skips the sweep + walk.
    verifier::VerifierReport report = verifyImage(spec);

    auto cub = std::make_unique<Cubicle>();
    cub->id = static_cast<Cid>(cubicles_.size());
    cub->name = spec.name;
    cub->kind = spec.kind;
    // Per-cubicle locks order by cid (lockdep same-rank key): legal to
    // rebind here because the cubicle is not published yet. The window
    // table is guarded by windowMutex_ (a cross-object relation TSA
    // cannot annotate); binding it here makes lockdep enforce it.
    cub->stackMu.setOrderKey(cub->id);
    cub->heapMu.setOrderKey(cub->id);
    cub->windows.bindGuard(&windowMutex_);

    if (spec.kind == CubicleKind::kIsolated) {
        // Under virtualisation, stop handing out static tags before
        // the physical space is bone dry: the reserve keeps a few
        // keys allocatable for hot windows (paper §8), which need a
        // dedicated hardware tag each.
        const bool reserve_hit =
            cfg_.virtualizeTags &&
            mpk_.remainingKeys() <= kHotKeyReserve;
        const int key = reserve_hit ? -1 : mpk_.allocKey();
        if (key >= 0) {
            // Statically tagged: this cubicle keeps its physical tag
            // forever and never enters the eviction pool. The libos
            // infrastructure loads first, so under virtualisation the
            // core stack stays permanently resident.
            cub->pkey = key;
        } else if (cfg_.virtualizeTags) {
            // Physical tags exhausted: dynamically tagged. The cubicle
            // starts parked; its first cross-call or touch binds a
            // pool tag through ensureResident.
            cub->lkey = mpk_.allocLogicalKey();
            cub->pkey = parkedKey_;
        } else {
            throw LoaderError(
                "MPK keys exhausted loading '" + spec.name +
                "' (enable virtualizeTags for >14 isolated cubicles)");
        }
    } else {
        cub->pkey = sharedKey_;
    }
    const Cid cid = cub->id;
    try {
        provisionCubicle(*cub, spec);
    } catch (...) {
        // A failed load returns its static tag, as it does its pages.
        if (spec.kind == CubicleKind::kIsolated && cub->lkey < 0)
            mpk_.freeKey(cub->pkey);
        throw;
    }

    // Publish: the release store pairs with cubicleCount()'s acquire
    // load, making the fully constructed cubicle (and its parallel
    // report) visible to lock-free readers. The tables are deliberately
    // not GUARDED_BY(loaderMutex_) — readers go through the publication
    // protocol — so the "growth only under the loader lock" half is
    // enforced at runtime instead.
    if constexpr (lockdep::kEnabled) {
        lockdep::assertHeld(&loaderMutex_,
                            "Monitor cubicle-table publication");
    }
    cubicles_.push_back(std::move(cub));
    loadReports_.push_back(std::move(report));
    lifeRecords_.emplace_back();
    cubicleCount_.store(cubicles_.size(), std::memory_order_release);
    return cid;
}

verifier::VerifierReport
Monitor::verifyImage(const ComponentSpec &spec)
{
    const std::vector<uint8_t> &image = spec.image;
    if (image.empty())
        throw VerifierError("component '" + spec.name +
                            "' has an empty code image");
    for (const std::size_t e : spec.entryPoints) {
        if (e >= image.size()) {
            throw VerifierError(
                "component '" + spec.name + "' exports entry point " +
                std::to_string(e) + " outside its " +
                std::to_string(image.size()) + "-byte image");
        }
    }
    for (const verifier::EntryTable &t : spec.indirectTables) {
        if (t.offset >= image.size() ||
            t.count > (image.size() - t.offset) / 4) {
            throw VerifierError(
                "component '" + spec.name +
                "' declares an indirect-target table at offset " +
                std::to_string(t.offset) + " (" + std::to_string(t.count) +
                " entries) outside its " + std::to_string(image.size()) +
                "-byte image");
        }
    }
    bool cacheHit = false;
    verifier::VerifierReport report =
        verifier::VerifyCache::instance().verify(image, spec.entryPoints,
                                                 spec.indirectTables,
                                                 &cacheHit);
    stats_->add(cacheHit ? Stat::verifyCacheHits : Stat::verifyCacheMisses);
    // Counted per load, hit or miss: imagesVerified tracks verified
    // loads, the hit/miss counters tell how many ran the passes.
    stats_->add(Stat::imagesVerified);
    stats_->add(Stat::verifierBytesScanned, report.imageBytes);
    stats_->add(Stat::verifierBytesDecoded, report.decodedBytes);
    stats_->add(Stat::verifierInsns, report.insnCount);
    stats_->add(Stat::verifierRejected, report.rejectingCount());
    stats_->add(Stat::verifierReported, report.embeddedCount());
    if (const verifier::CodeFinding *f = report.firstRejecting()) {
        throw VerifierError(
            "component '" + spec.name +
            "' contains forbidden instruction '" + f->mnemonic +
            "' at offset " + std::to_string(f->offset) + " (" +
            verifier::findingClassName(f->cls) + ")");
    }
    return report;
}

void
Monitor::provisionCubicle(Cubicle &cub, const ComponentSpec &spec)
{
    const std::vector<uint8_t> &image = spec.image;
    const auto pkey = static_cast<uint8_t>(cub.pkey);
    const Cid cid = cub.id;

    // Code pages are mapped writable to copy the image, then made
    // execute-only (rule 1, §5.4: cubicles cannot change execute
    // permissions later). All or nothing: when one range does not fit,
    // the ranges already taken go back, so a failed load or restart
    // leaks no pages.
    const std::size_t stack_pages =
        spec.stackPages ? spec.stackPages : cfg_.stackPages;
    {
        MutexLock pages(pageMutex_);
        cub.codeRange = pageAlloc_.allocPages(
            hw::pagesFor(image.size()), cid, mem::PageType::kCode,
            hw::kPermWrite, pkey);
        cub.globalRange = pageAlloc_.allocPages(
            spec.globalPages, cid, mem::PageType::kGlobal,
            hw::kPermRead | hw::kPermWrite, pkey);
        cub.stackRange = pageAlloc_.allocPages(
            stack_pages, cid, mem::PageType::kStack,
            hw::kPermRead | hw::kPermWrite, pkey);
        const char *missing = !cub.codeRange.valid() ? "code"
            : spec.globalPages > 0 && !cub.globalRange.valid() ? "global"
            : !cub.stackRange.valid() ? "stack"
            : nullptr;
        if (missing) {
            for (mem::PageRange *r :
                 {&cub.codeRange, &cub.globalRange, &cub.stackRange}) {
                pageAlloc_.freePages(*r);
                *r = mem::PageRange{};
            }
            throw OutOfMemory(std::string(missing) + " pages for '" +
                              spec.name + "'");
        }
    }
    std::memcpy(cub.codeRange.ptr, image.data(), image.size());
    space_.setPerms(cub.codeRange.first, cub.codeRange.count,
                    hw::kPermExec);

    // Heap: default page source is the monitor's pool. The boot code may
    // rewire it to cross-call the ALLOC component (see System::boot).
    // The callbacks run under the owning cubicle's heapMu and take only
    // the leaf pageMutex_, per the lock hierarchy.
    cub.heap = std::make_unique<mem::HeapAllocator>(
        [this, cid](std::size_t pages) {
            // Through allocPagesFor: reads the cubicle's current tag
            // and re-parks the fresh pages if an eviction raced it.
            return allocPagesFor(cid, pages, mem::PageType::kHeap);
        },
        [this](const mem::PageRange &r) {
            MutexLock l(pageMutex_);
            pageAlloc_.freePages(r);
        },
        kHeapChunkPages);
}

const verifier::VerifierReport &
Monitor::verifierReport(Cid cid) const
{
    assert(cid < cubicleCount());
    return loadReports_[cid];
}

WiringSnapshot
Monitor::snapshotWiring() const
{
    // Loader lock freezes the cubicle table, shared window lock
    // freezes ACLs — acquired in hierarchy order.
    MutexLock loader(loaderMutex_);
    ReaderLock windows(windowMutex_);
    WiringSnapshot snap;
    snap.sharedKey = sharedKey_;
    snap.cubicles.reserve(cubicles_.size());
    for (const auto &cub : cubicles_) {
        snap.cubicles.push_back(CubicleWiring{
            cub->id, cub->name, cub->kind, cub->pkey});
    }
    for (Wid wid = 0; wid < windows_.size(); ++wid) {
        const Window &w = windows_[wid];
        if (!w.live)
            continue;
        snap.windows.push_back(WindowWiring{
            wid, w.owner, w.acl, w.rangeCount, w.hotKey,
            w.rangesEverAdded, windowUsage_[wid][kUsedRead].load(),
            windowUsage_[wid][kUsedWrite].load()});
    }
    return snap;
}

Cubicle &
Monitor::cubicle(Cid cid)
{
    assert(cid < cubicleCount());
    return *cubicles_[cid];
}

const Cubicle &
Monitor::cubicle(Cid cid) const
{
    assert(cid < cubicleCount());
    return *cubicles_[cid];
}

hw::Pkru
Monitor::pkruFor(Cid cid) const
{
    // Lock-free: pkey is a word-atomic tag and extraAllow is an atomic
    // register image. Runs on every cross-call switch.
    hw::Pkru pkru = hw::Pkru::denyAll();
    if (cid < cubicleCount()) {
        // Never allow the parked tag: every parked cubicle shares it,
        // so allowing it would cross-expose all of them. A parked
        // cubicle's accesses fault and re-bind via ensureResident.
        // A dead cubicle without tag virtualisation has pkey == -1
        // (its static tag is saved for restart): allow nothing.
        const int k = cubicles_[cid]->pkey;
        if (k >= 0 && k != parkedKey_)
            pkru.allow(k);
        // Hot-window keys granted to this cubicle (paper §8).
        pkru.mergeAllow(cubicles_[cid]->extraAllow.load());
    }
    // Shared cubicles' static data is accessible from every cubicle.
    pkru.allow(sharedKey_);
    return pkru;
}

template <typename Wants, typename KeyFor>
std::size_t
Monitor::retagRuns(std::size_t first, std::size_t end, Wants wants,
                   KeyFor keyFor, bool count)
{
    std::size_t total = 0;
    std::size_t i = first;
    while (i < end) {
        if (!wants(i)) {
            ++i;
            continue;
        }
        const uint8_t key = keyFor(i);
        std::size_t run = i + 1;
        while (run < end && run - i < kRetagChunkPages && wants(run) &&
               keyFor(run) == key)
            ++run;
        space_.setKeyRange(i, run - i, key);
        if (count)
            stats_->countRetag(run - i);
        total += run - i;
        i = run;
    }
    return total;
}

// ----------------------------------------------------------------------
// Window API
// ----------------------------------------------------------------------

Window &
Monitor::windowChecked(Cid caller, Wid wid, const char *op)
{
    if (wid >= windows_.size() || !windows_[wid].live)
        throw WindowError(std::string(op) + ": invalid window id");
    Window &w = windows_[wid];
    // Windows are assigned to the creating cubicle and can only be
    // managed by it (paper §4).
    if (w.owner != caller)
        throw WindowError(std::string(op) + ": cubicle " +
                          std::to_string(caller) +
                          " does not own window " + std::to_string(wid));
    return w;
}

Wid
Monitor::windowInit(Cid caller)
{
    WriterLock lock(windowMutex_);
    stats_->add(Stat::windowOps);
    // Reuse a dead slot if available.
    for (Wid wid = 0; wid < windows_.size(); ++wid) {
        if (!windows_[wid].live) {
            windows_[wid] = Window{caller, 0, true, 0};
            windowUsage_[wid] = WindowUsage{};
            return wid;
        }
    }
    windows_.push_back(Window{caller, 0, true, 0});
    windowUsage_.emplace_back();
    return static_cast<Wid>(windows_.size() - 1);
}

void
Monitor::windowAdd(Cid caller, Wid wid, const void *ptr, std::size_t size)
{
    WriterLock lock(windowMutex_);
    stats_->add(Stat::windowOps);
    Window &w = windowChecked(caller, wid, "window_add");

    if (!space_.contains(ptr) || size == 0)
        throw WindowError("window_add: range outside the address space");
    const auto &pm = meta_.at(space_.pageIndexOf(ptr));
    // Only memory owned by the calling cubicle may be shared.
    if (pm.owner != caller)
        throw WindowError("window_add: cubicle " + std::to_string(caller) +
                          " does not own the memory range");
    cubicles_[caller]->windows.add(pm.type, ptr, size, wid);
    ++w.rangeCount;
    ++w.rangesEverAdded;

    if (w.hotKey >= 0) {
        // Hot window: tag the pages with the window key now, so uses
        // by any ACL member need no trap at all. Through the prestage
        // sweep, which retags only the caller's own pages and clamps
        // at the end of the space: only the range's first page was
        // validated above.
        const std::size_t pages = prestageSweep(
            caller, wid, static_cast<uint8_t>(w.hotKey),
            /*only_parked=*/false);
        if (pages > 0)
            stats_->countRetag(pages);
    }
}

void
Monitor::windowRemove(Cid caller, Wid wid, const void *ptr)
{
    WriterLock lock(windowMutex_);
    stats_->add(Stat::windowOps);
    Window &w = windowChecked(caller, wid, "window_remove");
    if (!cubicles_[caller]->windows.remove(wid, ptr))
        throw WindowError("window_remove: no such range in window");
    --w.rangeCount;
    bumpEpoch(); // the range's pages are no longer grantable
}

void
Monitor::windowOpen(Cid caller, Wid wid, Cid peer)
{
    WriterLock lock(windowMutex_);
    stats_->add(Stat::windowOps);
    Window &w = windowChecked(caller, wid, "window_open");
    w.acl |= aclBit(peer);
    if (w.hotKey >= 0 && peer < cubicleCount())
        cubicles_[peer]->extraAllow.allow(w.hotKey);
    // No epoch bump: opening only widens grants, cached ones stay valid.
}

void
Monitor::windowClose(Cid caller, Wid wid, Cid peer)
{
    WriterLock lock(windowMutex_);
    stats_->add(Stat::windowOps);
    Window &w = windowChecked(caller, wid, "window_close");
    // Lazy revocation: the ACL bit is cleared but pages keep their
    // current tag (causal tag consistency, §5.6). Hot windows revoke
    // eagerly through the PKRU mask instead.
    w.acl &= ~aclBit(peer);
    if (w.hotKey >= 0 && peer < cubicleCount())
        cubicles_[peer]->extraAllow.deny(w.hotKey);
    bumpEpoch();
}

void
Monitor::windowCloseAll(Cid caller, Wid wid)
{
    WriterLock lock(windowMutex_);
    stats_->add(Stat::windowOps);
    Window &w = windowChecked(caller, wid, "window_close_all");
    if (w.hotKey >= 0) {
        for (Cid cid = 0; cid < cubicleCount(); ++cid) {
            if ((w.acl & aclBit(cid)) && cid != caller)
                cubicles_[cid]->extraAllow.deny(w.hotKey);
        }
    }
    w.acl = 0;
    bumpEpoch();
}

void
Monitor::windowDestroy(Cid caller, Wid wid)
{
    WriterLock lock(windowMutex_);
    stats_->add(Stat::windowOps);
    windowChecked(caller, wid, "window_destroy");
    destroyWindowLocked(caller, wid);
}

void
Monitor::destroyWindowLocked(Cid owner, Wid wid)
{
    Window &w = windows_[wid];
    if (w.hotKey >= 0) {
        // Return the window's pages to the owner's tag and revoke the
        // key from every PKRU mask. (The key itself is not recycled;
        // hardware keys are a scarce, explicitly-requested resource.)
        // A lock-free fast-path fault (owner retag / no-ACL mode) may
        // race this sweep and win on a page; it leaves the page tagged
        // for a still-entitled accessor, which lazy close already
        // permits.
        sweepTag(w.hotKey, cubicles_[owner]->pkey);
        for (std::size_t i = 0; i < cubicleCount(); ++i)
            cubicles_[i]->extraAllow.deny(w.hotKey);
    }
    cubicles_[owner]->windows.removeAll(wid);
    w = Window{}; // live = false; slot reusable
    bumpEpoch();
}

void
Monitor::windowSetHot(Cid caller, Wid wid)
{
    WriterLock lock(windowMutex_);
    stats_->add(Stat::windowOps);
    Window &w = windowChecked(caller, wid, "window_set_hot");
    if (w.hotKey >= 0)
        return;
    const int key = mpk_.allocKey();
    if (key < 0) {
        // Under virtualisation key exhaustion is an expected steady
        // state (every key beyond the reserve is spoken for), and hot
        // windows are a performance hint: degrade to an ordinary
        // trap-and-map window instead of failing the deployment.
        if (cfg_.virtualizeTags)
            return;
        throw WindowError(
            "window_set_hot: MPK keys exhausted (hot windows use one "
            "dedicated hardware key each)");
    }
    w.hotKey = key;
    cubicles_[caller]->extraAllow.allow(key);
    for (Cid cid = 0; cid < cubicleCount(); ++cid) {
        if (w.acl & aclBit(cid))
            cubicles_[cid]->extraAllow.allow(key);
    }
}

std::size_t
Monitor::windowPrestage(Cid caller, Wid wid, Cid peer,
                        hw::Access expected)
{
    WriterLock lock(windowMutex_);
    stats_->add(Stat::windowOps);
    Window &w = windowChecked(caller, wid, "window_prestage");
    if (peer >= cubicleCount())
        throw WindowError("window_prestage: unknown peer cubicle");
    if ((w.acl & aclBit(peer)) == 0) {
        throw WindowError("window_prestage: peer " +
                          std::to_string(peer) +
                          " is not in the ACL of window " +
                          std::to_string(wid));
    }
    if (w.hotKey >= 0)
        return 0; // hot windows are already eagerly tagged

    // The hint is a usage declaration: the audit would otherwise never
    // see a fault from a peer whose first touch was prestaged away.
    WindowUsage &usage = windowUsage_[wid];
    const bool write = expected == hw::Access::kWrite;
    if (write)
        usage[kUsedWrite].fetchOr(aclBit(peer));
    usage[kUsedRead].fetchOr(aclBit(peer));
    // Remember the standing hint so an eviction of the peer does not
    // erase it: fault-in replays the prestage (DESIGN.md §14).
    usage[write ? kPrestagedWrite : kPrestagedRead].fetchOr(aclBit(peer));

    const int peer_pkey = cubicles_[peer]->pkey;
    if (parkedKey_ >= 0 && peer_pkey == parkedKey_) {
        // Parked peer: retagging to the parked tag would park the
        // owner's pages. The hint is recorded above; fault-in replays
        // the physical sweep when the peer re-binds.
        return 0;
    }

    const std::size_t total =
        prestageSweep(caller, wid, static_cast<uint8_t>(peer_pkey),
                      /*only_parked=*/false);
    if (total > 0)
        stats_->countPrestage(total);
    return total;
}

std::size_t
Monitor::prestageSweep(Cid owner, Wid wid, uint8_t peer_key,
                       bool only_parked)
{
    std::size_t total = 0;
    // Owner intersection, exactly as in handleFault: windowAdd
    // validates only the first page, so foreign pages inside a range
    // are skipped, never granted. Pages already carrying the peer's
    // tag are skipped too, so re-prestaging a window after each new
    // staged range (the grant layer does this) only pays for the
    // pages that actually changed hands. With @p only_parked (the
    // fault-in replay) the sweep reclaims only pages the eviction
    // parked, plus pages the window's owner pulled back under its own
    // tag when it faulted in first — pages a third party currently
    // holds keep their tag.
    const uint8_t owner_key = static_cast<uint8_t>(cubicles_[owner]->pkey);
    auto eligible = [&](std::size_t i) {
        if (meta_.at(i).owner != owner ||
            space_.entryAt(i).pkey == peer_key)
            return false;
        if (only_parked &&
            space_.entryAt(i).pkey != static_cast<uint8_t>(parkedKey_) &&
            space_.entryAt(i).pkey != owner_key)
            return false;
        return true;
    };
    for (const WindowRange &r : cubicles_[owner]->windows.rangesOf(wid)) {
        const auto *p = static_cast<const std::byte *>(r.ptr);
        if (r.size == 0 || !space_.contains(p))
            continue;
        const std::byte *last_byte = p + r.size - 1;
        const std::size_t end = space_.contains(last_byte)
            ? space_.pageIndexOf(last_byte) + 1
            : space_.numPages();
        total += retagRuns(
            space_.pageIndexOf(p), end, eligible,
            [peer_key](std::size_t) { return peer_key; }, /*count=*/false);
    }
    return total;
}

AclMask
Monitor::windowAcl(Wid wid) const
{
    ReaderLock lock(windowMutex_);
    if (wid >= windows_.size() || !windows_[wid].live)
        throw WindowError("windowAcl: invalid window id");
    return windows_[wid].acl;
}

// ----------------------------------------------------------------------
// Trap-and-map
// ----------------------------------------------------------------------

bool
Monitor::handleFault(const hw::Fault &fault, Cid accessor,
                     IsolationMode mode)
{
    clock_.charge(hw::cost::kFaultTrap);
    stats_->add(Stat::traps);

    // Opt-in fault trace for hot-path tuning: every trap is a modelled
    // 3,500-cycle event, so when a workload traps more than expected
    // this names the accessor, the page owner and the access at the
    // fault site (CUBICLEOS_TRACE=faults). The category is cached here
    // so a disabled trace costs every trap one inline branch.
    static const bool trace_faults = traceOn(TraceCategory::kFaults);
    if (trace_faults && space_.contains(fault.addr) &&
        accessor < cubicleCount()) {
        const std::size_t pg = space_.pageIndexOf(fault.addr);
        const Cid own = meta_.at(pg).owner;
        trace(
            TraceCategory::kFaults, "%s %s page=%zu owner=%s pkey=%u",
            cubicles_[accessor]->name.c_str(),
            fault.reason == hw::FaultReason::kPkuWrite ? "W" : "R", pg,
            own < cubicleCount() ? cubicles_[own]->name.c_str() : "?",
            static_cast<unsigned>(fault.pkey));
    }

    // Only MPK faults are resolvable; page-permission and not-present
    // faults are genuine errors.
    if (fault.reason != hw::FaultReason::kPkuRead &&
        fault.reason != hw::FaultReason::kPkuWrite) {
        return false;
    }
    if (!space_.contains(fault.addr) || accessor >= cubicleCount())
        return false;

    // ❷ page metadata: owner and type in O(1). Atomic reads — no lock.
    const std::size_t page = space_.pageIndexOf(fault.addr);
    const mem::PageMeta &pm = meta_.at(page);
    const Cid page_owner = pm.owner;
    if (page_owner == kNoCubicle || page_owner >= cubicleCount())
        return false;

    // Tag virtualisation: a parked accessor must be re-bound before
    // any grant can be committed with its tag (retagging to the parked
    // tag would hand the page to every parked cubicle). Lock-free when
    // the accessor is statically tagged or already bound.
    int accessor_key_i = cubicles_[accessor]->pkey;
    if (parkedKey_ >= 0 && accessor_key_i == parkedKey_)
        accessor_key_i = ensureResident(accessor);
    const auto accessor_key = static_cast<uint8_t>(accessor_key_i);

    // The owner always has access to its own pages (implicit window 0):
    // a fault here means the page was lazily left tagged for a previous
    // accessor; retag it back. Range-granular: the contiguous run of
    // pages with the same owner and the same stale tag was granted
    // away by the same lazy history, so one pkey_mprotect reclaims all
    // of it (capped at kRetagChunkPages). Matching on the faulting tag
    // keeps hot-window pages (dedicated key) out of the run. Lock-free:
    // the atomic tag stores are the whole commit.
    // "CubicleOS w/o ACLs" takes the same path: MPK enforced, windows
    // open for any access.
    if (page_owner == accessor || mode == IsolationMode::kNoAcl) {
        const std::size_t limit =
            std::min(space_.numPages(), page + kRetagChunkPages);
        std::size_t end = page + 1;
        while (end < limit && meta_.at(end).owner == page_owner &&
               space_.entryAt(end).pkey == fault.pkey)
            ++end;
        space_.setKeyRange(page, end - page, accessor_key);
        stats_->countRetag(end - page);
        if (parkedKey_ >= 0 &&
            cubicles_[accessor]->pkey != accessor_key_i) {
            // An eviction re-bound our tag between the read above and
            // the lock-free commit: the range now carries a tag that
            // belongs to another cubicle. Undo to the parked tag —
            // losing access is always safe — and let the retried
            // access fault back in through ensureResident.
            space_.setKeyRange(page, end - page,
                               static_cast<uint8_t>(parkedKey_));
        }
        return true;
    }

    // ❸ interval lookup in the owner's window-descriptor array and
    // ❹ the O(1) ACL bitmask check — both reads, under the shared
    // window lock so faults in different cubicles proceed in parallel
    // and only window mutations exclude them.
    ReaderLock lock(windowMutex_);
    const Cubicle &owner = *cubicles_[page_owner];
    const Wid wid = owner.windows.findWindowFor(pm.type, fault.addr);
    if (wid == kInvalidWindow)
        return false;

    const Window &w = windows_[wid];
    if (!w.live || (w.acl & aclBit(accessor)) == 0)
        return false;

    // Record the exercised grant for the least-privilege audit: this
    // is the one point where a peer demonstrably used its ACL bit.
    // Relaxed fetch-or under the shared lock — the audit only reads
    // the masks after quiescing through snapshotWiring's locks.
    const UsageKind used =
        fault.reason == hw::FaultReason::kPkuWrite ? kUsedWrite : kUsedRead;
    windowUsage_[wid][used].fetchOr(aclBit(accessor));

    // ❺ grant: range-granular. The ACL covers the whole window, not
    // one page, so one fault may retag the entire merged coverage of
    // the matched window's ranges around the faulting address —
    // intersected per page with the owner's pages (windowAdd validates
    // only the first page of a range) and capped at kRetagChunkPages.
    // The tag stores are atomic, so the commit needs no exclusive
    // lock; a concurrent close cannot interleave (it takes the lock
    // exclusively).
    std::size_t lo = page;
    std::size_t hi = page + 1; // retag [lo, hi)
    const RangeSpan span =
        owner.windows.coverageFor(pm.type, wid, fault.addr);
    if (!span.empty()) {
        const auto *span_last =
            reinterpret_cast<const std::byte *>(span.end - 1);
        const std::size_t first = space_.pageIndexOf(
            reinterpret_cast<const std::byte *>(span.start));
        const std::size_t last = space_.contains(span_last)
            ? space_.pageIndexOf(span_last)
            : space_.numPages() - 1;
        while (hi <= last && hi - lo < kRetagChunkPages &&
               meta_.at(hi).owner == page_owner)
            ++hi;
        while (lo > first && hi - lo < kRetagChunkPages &&
               meta_.at(lo - 1).owner == page_owner)
            --lo;
    }
    if (parkedKey_ >= 0 && cubicles_[accessor]->pkey != accessor_key_i) {
        // An eviction completed between ensureResident and this
        // ReaderLock (evictions hold the lock exclusively, so none is
        // concurrent with us): the tag we were about to grant now
        // backs another cubicle. Retry; the next round re-binds.
        return true;
    }
    space_.setKeyRange(lo, hi - lo, accessor_key);
    stats_->countRetag(hi - lo);
    return true;
}

// ----------------------------------------------------------------------
// Tag virtualisation (DESIGN.md §14)
// ----------------------------------------------------------------------

int
Monitor::ensureResident(Cid cid)
{
    if (cid >= cubicleCount())
        return -1;
    Cubicle &cub = *cubicles_[cid];
    // Lock-free fast path: statically tagged, or already bound.
    if (cub.lkey < 0)
        return cub.pkey;
    if (cub.pkey != parkedKey_)
        return cub.pkey;

    // Bind/evict under the exclusive window lock (the page sweeps must
    // not race the fault handler's window walk) then the key lock.
    WriterLock windows(windowMutex_);
    MutexLock keys(keyMutex_);
    if (cub.pkey != parkedKey_)
        return cub.pkey; // another thread bound us while we waited

    int tag = keys_.bindFree(cid);
    if (tag < 0) {
        tag = evictLocked();
        keys_.rebind(tag, cid);
    }
    const std::size_t restored = faultInLocked(cid, tag);
    // Publish the binding only after the pages are restored, then
    // invalidate every thread's cached PKRU (the IPI analogue).
    cub.pkey = tag;
    cub.lastUse = useClock_.fetch_add(1, std::memory_order_relaxed) + 1;
    keyEpoch_.fetch_add(1, std::memory_order_seq_cst);
    trace(TraceCategory::kEvictions, "faultin %s tag=%d pages=%zu",
          cub.name.c_str(), tag, restored);
    return tag;
}

void
Monitor::noteSwitch(Cid callee)
{
    if (parkedKey_ < 0 || callee >= cubicleCount())
        return;
    Cubicle &cub = *cubicles_[callee];
    if (cub.lkey < 0)
        return; // statically tagged: never evicted
    cub.lastUse = useClock_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (cub.pkey == parkedKey_) {
        stats_->add(Stat::tagMisses);
        ensureResident(callee);
    } else {
        stats_->add(Stat::tagHits);
    }
}

int
Monitor::evictLocked()
{
    // LRU victim scan over the (≤ dynamicTags) bound slots.
    const KeyBinding *victim = nullptr;
    uint64_t oldest = ~uint64_t{0};
    for (const KeyBinding &s : keys_.slots()) {
        if (s.cid == kNoCubicle || s.cid >= cubicleCount())
            continue;
        const uint64_t lu = cubicles_[s.cid]->lastUse;
        if (victim == nullptr || lu < oldest) {
            oldest = lu;
            victim = &s;
        }
    }
    assert(victim != nullptr && "evictLocked: empty dynamic pool");
    Cubicle &v = *cubicles_[victim->cid];
    const int tag = victim->tag;

    // Park the victim BEFORE the sweep: lock-free fast paths re-check
    // the accessor's pkey after their atomic retag and undo on
    // mismatch, so ordering the store first closes the race.
    v.pkey = parkedKey_;
    keyEpoch_.fetch_add(1, std::memory_order_seq_cst);

    // Sweep EVERY present page still carrying the victim's tag to the
    // parked tag — the victim's own pages and pages other owners
    // granted it through windows (their tag ran ahead of revocation
    // under §5.6 laziness; parking them is a narrowing, always safe).
    std::size_t examined = 0;
    const std::size_t pages = sweepTag(tag, parkedKey_, &examined);
    stats_->add(Stat::residencyScanPages, examined);

    // Unlike PR 8's widening retags, an eviction is a *narrowing*
    // retag that cached grants may still cover: bump the revocation
    // epoch so no thread's grant cache can absorb a touch on a page
    // that is now parked.
    bumpEpoch();

    stats_->add(Stat::evictions);
    keys_.release(tag);
    trace(TraceCategory::kEvictions, "evict %s tag=%d pages=%zu",
          v.name.c_str(), tag, pages);
    return tag;
}

std::size_t
Monitor::faultInLocked(Cid cid, int tag)
{
    const auto parked = static_cast<uint8_t>(parkedKey_);
    const auto to = static_cast<uint8_t>(tag);

    // Restore the cubicle's own parked pages in chunked runs, over the
    // groups the key summary flags for the parked tag. Other parked
    // pages stay, so the flags stay too.
    std::size_t total = 0;
    const std::size_t examined = space_.forEachKeyRun(
        parked, /*clear=*/false, [&](std::size_t first, std::size_t end) {
            total += retagRuns(
                first, end,
                [&](std::size_t p) {
                    return space_.entryAt(p).present &&
                           space_.entryAt(p).pkey == parked &&
                           meta_.at(p).owner == cid;
                },
                [to](std::size_t) { return to; }, /*count=*/true);
        });
    stats_->add(Stat::residencyScanPages, examined);

    // Replay standing prestage hints: every live window that prestaged
    // for this cubicle (and still lists it in the ACL) gets its parked
    // range pages restored to the new tag, so a grant-layer Prestage
    // declaration survives eviction instead of decaying to first-touch
    // faults.
    const AclMask bit = aclBit(cid);
    for (Wid wid = 0; wid < windows_.size(); ++wid) {
        const Window &w = windows_[wid];
        if (!w.live || !(w.acl & bit))
            continue;
        const WindowUsage &usage = windowUsage_[wid];
        if (!((usage[kPrestagedRead].load() |
               usage[kPrestagedWrite].load()) & bit))
            continue;
        const std::size_t replayed =
            prestageSweep(w.owner, wid, to, /*only_parked=*/true);
        if (replayed > 0) {
            stats_->countPrestage(replayed);
            total += replayed;
        }
    }

    cubicles_[cid]->faultIns.fetchAdd(1);
    stats_->countFaultIn(total);
    return total;
}

std::size_t
Monitor::sweepTag(int from, int to, std::size_t *examined)
{
    const auto from_key = static_cast<uint8_t>(from);
    const auto to_key = static_cast<uint8_t>(to);
    std::size_t total = 0;
    // Every present page of from_key moves, so the walk may clear the
    // summary flags it visits.
    const std::size_t visited = space_.forEachKeyRun(
        from_key, /*clear=*/true, [&](std::size_t first, std::size_t end) {
            total += retagRuns(
                first, end,
                [this, from_key](std::size_t p) {
                    return space_.entryAt(p).present &&
                           space_.entryAt(p).pkey == from_key;
                },
                [to_key](std::size_t) { return to_key; }, /*count=*/true);
        });
    if (examined)
        *examined = visited;
    return total;
}

// ----------------------------------------------------------------------
// Lifecycle (DESIGN.md §15)
// ----------------------------------------------------------------------

std::size_t
Monitor::destroyCubicle(Cid cid)
{
    MutexLock life(lifecycleMutex_);
    if (cid >= cubicleCount())
        throw LoaderError("destroyCubicle: unknown cubicle " +
                          std::to_string(cid));
    Cubicle &cub = *cubicles_[cid];
    if (!cub.isolated()) {
        throw LoaderError("destroyCubicle: '" + cub.name +
                          "' is a shared cubicle (its static data is "
                          "mapped into every other cubicle)");
    }
    if (static_cast<LifeState>(cub.life.load()) != LifeState::kLive) {
        throw LoaderError(
            "destroyCubicle: '" + cub.name + "' is " +
            lifeStateName(static_cast<LifeState>(cub.life.load())));
    }
    trace(TraceCategory::kLifecycle, "destroy %s (cid=%u): draining",
          cub.name.c_str(), static_cast<unsigned>(cid));

    // 1. Refuse new entries (CrossCallGuard checks life before
    // charging) and unwind threads already inside: their next checked
    // access — System::touchSlow, heapAlloc — throws PeerFault.
    cub.life.store(static_cast<uint8_t>(LifeState::kDraining));

    // 2. Quiesce, shard by shard. We hold only lifecycleMutex_ (above
    // the whole hierarchy), so draining threads are free to fault,
    // allocate and unwind underneath us. A shard that reads zero stays
    // drained: an entry counted on it after this read checks life
    // after our kDraining store, so it backs out.
    for (std::size_t s = 0; s < hw::kShards; ++s) {
        while (inFlight_[s][cid].load() != 0)
            std::this_thread::yield();
    }

    // Everything the cubicle owns right now is what destroy reclaims.
    const std::size_t reclaimed = meta_.countOwnedBy(cid);
    LifecycleRecord &rec = lifeRecords_[cid];
    rec.revoked.clear();

    {
        WriterLock windows(windowMutex_);

        // 3a. Windows the victim owns die outright (init re-creates
        // them at restart, exactly as at first boot).
        for (Wid wid = 0; wid < windows_.size(); ++wid) {
            if (windows_[wid].live && windows_[wid].owner == cid)
                destroyWindowLocked(cid, wid);
        }

        // 3b. Revoke the victim's grants on every other owner's
        // window, recording them for restart replay. The usage and
        // prestage masks are scrubbed too: the least-privilege audit
        // must not credit a dead peer with exercised access.
        const AclMask bit = aclBit(cid);
        const AclMask keep = ~bit;
        for (Wid wid = 0; wid < windows_.size(); ++wid) {
            Window &w = windows_[wid];
            if (!w.live || (w.acl & bit) == AclMask{})
                continue;
            RevokedGrant g{wid, w.owner};
            for (int k = 0; k < kUsageKinds; ++k) {
                AtomicAclMask &mask = windowUsage_[wid][k];
                if (mask.load() & bit)
                    g.usage |= 1u << k;
                mask.store(mask.load() & keep);
            }
            rec.revoked.push_back(g);
            w.acl &= keep;
        }

        // 3c. Pages of OTHER owners still carrying the victim's tag
        // (granted through windows; §5.6 laziness let the tag outlive
        // the grant) go back to their owner's current tag, so a
        // recycled dynamic tag cannot leak foreign pages to its next
        // holder. The victim's own pages keep their tag: they are
        // unmapped below, and reallocation retags. A parked victim's
        // tag backs nothing — the eviction already swept it — so the
        // scan finds no pages and the destroy never faults the victim
        // back in. Adjacent pages going back to the same tag share one
        // counted pkey_mprotect.
        const int victim_tag = cub.pkey;
        if (victim_tag >= 0 && victim_tag != parkedKey_) {
            const auto vkey = static_cast<uint8_t>(victim_tag);
            space_.forEachKeyRun(
                vkey, /*clear=*/false,
                [&](std::size_t first, std::size_t end) {
                    retagRuns(
                        first, end,
                        [&](std::size_t p) {
                            const Cid own = meta_.at(p).owner;
                            return space_.entryAt(p).present &&
                                   space_.entryAt(p).pkey == vkey &&
                                   own != cid && own < cubicleCount();
                        },
                        [&](std::size_t p) {
                            return static_cast<uint8_t>(
                                cubicles_[meta_.at(p).owner]->pkey);
                        },
                        /*count=*/true);
                });
        }

        // 3d. Hot-window keys granted TO the victim die with it.
        cub.extraAllow.reset();

        // 3e. Cached grants over anything revoked above are now stale.
        bumpEpoch();

        // 4. Release the physical tag. A bound dynamic tag returns to
        // the pool for other logical cubicles; a static tag is saved,
        // not freed, so the restart reuses it and never competes for
        // a key.
        {
            MutexLock keys(keyMutex_);
            if (cub.lkey >= 0) {
                rec.staticKey = -1;
                if (victim_tag >= 0 && victim_tag != parkedKey_)
                    keys_.release(victim_tag);
            } else {
                rec.staticKey = victim_tag;
            }
            cub.pkey = parkedKey_; // -1 without tag virtualisation
        }
    }
    keyEpoch_.fetch_add(1, std::memory_order_seq_cst);

    // 5. Return the memory. Heap chunks go straight to the pool: boot
    // may have routed this heap's growth through another component,
    // and a cross-call from the destroyer's (host) context is not
    // possible — per the suballoc contract, chunks already held are
    // returned through the new PageReturn.
    {
        MutexLock heap(cub.heapMu);
        if (cub.heap) {
            cub.heap->setSource(
                [](std::size_t) { return mem::PageRange{}; },
                [this](const mem::PageRange &r) {
                    MutexLock l(pageMutex_);
                    pageAlloc_.freePages(r);
                });
            cub.heap.reset();
        }
    }
    freePages(cub.codeRange);
    cub.codeRange = mem::PageRange{};
    freePages(cub.globalRange);
    cub.globalRange = mem::PageRange{};
    {
        MutexLock stack(cub.stackMu);
        freePages(cub.stackRange);
        cub.stackRange = mem::PageRange{};
        cub.stackUsed = 0;
    }
    assert(meta_.countOwnedBy(cid) == 0);

    cub.life.store(static_cast<uint8_t>(LifeState::kDead));
    stats_->countDestroy(reclaimed);
    trace(TraceCategory::kLifecycle,
          "destroy %s: %zu pages reclaimed, %zu grants revoked, static "
          "key %d saved",
          cub.name.c_str(), reclaimed, rec.revoked.size(), rec.staticKey);
    return reclaimed;
}

void
Monitor::restartCubicle(Cid cid, const ComponentSpec &spec)
{
    MutexLock life(lifecycleMutex_);
    if (cid >= cubicleCount())
        throw LoaderError("restartCubicle: unknown cubicle " +
                          std::to_string(cid));
    Cubicle &cub = *cubicles_[cid];
    if (static_cast<LifeState>(cub.life.load()) != LifeState::kDead) {
        throw LoaderError(
            "restartCubicle: '" + cub.name + "' is " +
            lifeStateName(static_cast<LifeState>(cub.life.load())) +
            ", not dead");
    }
    LifecycleRecord &rec = lifeRecords_[cid];

    {
        MutexLock loader(loaderMutex_);
        // An unchanged spec re-verifies as a hit in the verify cache:
        // the cheap path the restart benchmark measures.
        verifier::VerifierReport report = verifyImage(spec);

        // Tag restore: dynamically-tagged cubicles come back parked
        // and re-bind on first touch; statically-tagged ones reuse the
        // key destroy kept reserved, so a restart takes no key.
        if (cub.lkey >= 0) {
            cub.pkey = parkedKey_;
        } else {
            assert(rec.staticKey >= 0 &&
                   "static cubicle died without a saved key");
            cub.pkey = rec.staticKey;
        }
        provisionCubicle(cub, spec);
        loadReports_[cid] = std::move(report);
    }

    // Replay the grants peers had given the dying cubicle, so wiring
    // that survived the crash (the peers' windows) does not need the
    // peers' cooperation to resume. Windows that died or were recycled
    // since are skipped — their owner re-opens on its own schedule.
    {
        WriterLock windows(windowMutex_);
        const AclMask bit = aclBit(cid);
        const int pk = cub.pkey;
        constexpr unsigned hinted =
            (1u << kPrestagedRead) | (1u << kPrestagedWrite);
        std::size_t replayed = 0;
        for (const RevokedGrant &g : rec.revoked) {
            if (g.wid >= windows_.size())
                continue;
            Window &w = windows_[g.wid];
            if (!w.live || w.owner != g.owner)
                continue;
            w.acl |= bit;
            for (int k = 0; k < kUsageKinds; ++k) {
                if (g.usage & (1u << k))
                    windowUsage_[g.wid][k].fetchOr(bit);
            }
            if (w.hotKey >= 0)
                cub.extraAllow.allow(w.hotKey);
            if ((g.usage & hinted) && pk != parkedKey_) {
                // Resident restart: replay the eager sweep now. A
                // parked restart leaves it to fault-in (as after an
                // eviction).
                replayed += prestageSweep(g.owner, g.wid,
                                          static_cast<uint8_t>(pk),
                                          /*only_parked=*/false);
            }
        }
        if (replayed > 0)
            stats_->countPrestage(replayed);
        rec.revoked.clear();
        // No epoch bump needed: a restart only widens grants.
    }

    // New tag binding (parked or restored static key): cached PKRUs
    // must recompute, same as after an eviction.
    keyEpoch_.fetch_add(1, std::memory_order_seq_cst);

    cub.life.store(static_cast<uint8_t>(LifeState::kLive));
    ++rec.generation;
    stats_->add(Stat::restarts);
    trace(TraceCategory::kLifecycle,
          "restart %s (cid=%u): generation %llu, pkey=%d",
          cub.name.c_str(), static_cast<unsigned>(cid),
          static_cast<unsigned long long>(rec.generation),
          static_cast<int>(cub.pkey));
}

uint64_t
Monitor::lifeGeneration(Cid cid) const
{
    MutexLock life(lifecycleMutex_);
    assert(cid < cubicleCount());
    return lifeRecords_[cid].generation;
}

// ----------------------------------------------------------------------
// Memory management
// ----------------------------------------------------------------------

mem::PageRange
Monitor::allocPagesFor(Cid cid, std::size_t n, mem::PageType type,
                       uint8_t perms)
{
    assert(cid < cubicleCount());
    const int key_i = cubicles_[cid]->pkey;
    const auto key = static_cast<uint8_t>(key_i);
    MutexLock lock(pageMutex_);
    mem::PageRange r = pageAlloc_.allocPages(n, cid, type, perms, key);
    if (r.valid() && parkedKey_ >= 0 &&
        cubicles_[cid]->pkey != key_i) {
        // An eviction re-bound (or parked) the cubicle's tag while we
        // tagged the fresh pages with the stale value. Park them —
        // always safe — and let first touch fault them in.
        space_.setKeyRange(r.first, r.count,
                           static_cast<uint8_t>(parkedKey_));
    }
    return r;
}

void
Monitor::freePages(const mem::PageRange &range)
{
    MutexLock lock(pageMutex_);
    pageAlloc_.freePages(range);
}

std::byte *
Monitor::stackAlloc(Cid cid, std::size_t size, std::size_t align)
{
    Cubicle &cub = cubicle(cid);
    MutexLock lock(cub.stackMu);
    std::size_t off = (cub.stackUsed + align - 1) & ~(align - 1);
    if (off + size > cub.stackRange.sizeBytes())
        throw OutOfMemory("stack arena of '" + cub.name + "'");
    cub.stackUsed = off + size;
    return cub.stackRange.ptr + off;
}

std::size_t
Monitor::stackOffset(Cid cid) const
{
    const Cubicle &cub = cubicle(cid);
    MutexLock lock(cub.stackMu);
    return cub.stackUsed;
}

void
Monitor::stackRestore(Cid cid, std::size_t saved)
{
    Cubicle &cub = cubicle(cid);
    MutexLock lock(cub.stackMu);
    cub.stackUsed = saved;
}

} // namespace cubicleos::core
