#include "core/system.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "core/lifecycle.h"
#include "core/trace.h"

namespace cubicleos::core {

namespace {

/** Monotonic serial so TLS entries never alias across System lifetimes. */
std::atomic<uint64_t> g_system_serial{1};

struct TlsEntry {
    uint64_t serial;
    std::unique_ptr<ThreadCtx> ctx;
};

thread_local std::vector<TlsEntry> tls_entries;
thread_local uint64_t tls_cached_serial = 0;
thread_local ThreadCtx *tls_cached_ctx = nullptr;

/**
 * Modelled cycles of one direction of a crossing: the trampoline and
 * the stack switch, plus, once MPK is on, the guard page's wrpkru and
 * the trampoline's wrpkru to the destination's key set.
 */
constexpr uint64_t
crossingCycles(IsolationMode mode)
{
    return hw::cost::kTrampoline + hw::cost::kStackSwitch +
           (mode >= IsolationMode::kNoAcl ? 2 * hw::cost::kWrpkru : 0);
}

/**
 * Drops this thread's ref on its own in-flight slot. The thread is the
 * slot's only writer, so a store suffices; release, so a destroyer that
 * reads zero sees everything the thread did inside the callee.
 */
void
leaveInFlight(std::atomic<uint32_t> &in_flight)
{
    in_flight.store(in_flight.load(std::memory_order_relaxed) - 1,
                    std::memory_order_release);
}

/**
 * CrossCallGuard's refusal of an entry into @p cub, which is in
 * @p state, not kLive: counts the unwound call, traces it and throws
 * PeerFault. Cold and out of line, so the strings it builds cost the
 * guard's hot path no stack frame or saved registers.
 */
[[noreturn, gnu::cold, gnu::noinline]] void
refuseEntry(Stats &stats, const Cubicle &cub, LifeState state)
{
    stats.add(Stat::unwoundCalls);
    trace(TraceCategory::kLifecycle, "refused entry into %s cubicle %s",
          lifeStateName(state), cub.name.c_str());
    throw PeerFault(cub.id, "cross-call into " +
                                std::string(lifeStateName(state)) +
                                " cubicle '" + cub.name + "'");
}

} // namespace

// ----------------------------------------------------------------------
// CrossCallGuard: the cross-cubicle call trampoline (paper §5.5)
// ----------------------------------------------------------------------

CrossCallGuard::CrossCallGuard(System &sys, ThreadCtx &ctx, Cid callee)
    : sys_(sys), ctx_(ctx), caller_(ctx.current), savedPkru_(ctx.pkru)
{
    // Lifecycle gate (DESIGN.md §15): increment-then-check pairs with
    // destroyCubicle's mark-then-wait. Both sides are seq_cst, so in
    // the total order either the destroyer's kDraining store precedes
    // our life load (we back out and refuse), or our increment
    // precedes the destroyer's read of this thread's shard (it waits
    // for us). Relaxed ordering would admit the store-buffering
    // interleaving where the destroyer reads 0 while we read kLive.
    // This increment is one of the two locked instructions left on a
    // crossing; the call-edge count is the other.
    Monitor &mon = sys.monitor();
    if (callee < mon.cubicleCount()) {
        const Cubicle &cub = *mon.cubicles_[callee];
        std::atomic<uint32_t> &in_flight = mon.inFlightSlot(callee);
        in_flight.fetch_add(1);
        const auto state = static_cast<LifeState>(cub.life.load());
        if (state != LifeState::kLive) {
            leaveInFlight(in_flight);
            refuseEntry(sys.stats(), cub, state);
        }
        inFlight_ = &in_flight;
    }

    // One clock charge and one wrpkru count per direction.
    const IsolationMode mode = sys.mode();
    if (mode >= IsolationMode::kNoMpk)
        sys.clock().charge(crossingCycles(mode));
    if (mode >= IsolationMode::kNoAcl) {
        // Tag virtualisation: stamp the callee's LRU clock and bind it
        // a physical tag if it is parked, BEFORE computing its PKRU —
        // pkruFor never allows the parked tag.
        mon.noteSwitch(callee);
        sys.stats().add(Stat::wrpkrus, 2);
        ctx.pkru = mon.pkruFor(callee);
        ctx.keyEpoch = mon.keyEpoch();
    }
    ctx.callStack.push_back(caller_);
    ctx.current = callee;
}

CrossCallGuard::~CrossCallGuard()
{
    // Return CFI: returns must unwind through the trampoline that made
    // the call, back to the recorded caller.
    assert(!ctx_.callStack.empty() && ctx_.callStack.back() == caller_ &&
           "cross-cubicle return CFI violated");
    ctx_.callStack.pop_back();
    ctx_.current = caller_;

    const IsolationMode mode = sys_.mode();
    if (mode >= IsolationMode::kNoAcl) {
        sys_.stats().add(Stat::wrpkrus, 2);
        ctx_.pkru = savedPkru_;
    }
    if (mode >= IsolationMode::kNoMpk)
        sys_.clock().charge(crossingCycles(mode));

    // Drop the in-flight ref last: once the counter reads zero the
    // destroyer may reclaim, so this thread must be fully out first.
    if (inFlight_)
        leaveInFlight(*inFlight_);
}

// ----------------------------------------------------------------------
// System
// ----------------------------------------------------------------------

System::System(SystemConfig cfg)
    : stats_(), monitor_(cfg, &stats_), mode_(cfg.mode),
      serial_(g_system_serial.fetch_add(1))
{
}

System::~System()
{
    // Detach heap page sources that route through components: export
    // slots die before the monitor's cubicles, so a heap destructor
    // must not cross-call into them. Chunks go down with the pool.
    for (Cid cid = 0; cid < static_cast<Cid>(monitor_.cubicleCount());
         ++cid) {
        Cubicle &cub = monitor_.cubicle(cid);
        if (cub.heap) {
            MutexLock lock(cub.heapMu);
            cub.heap->setSource(
                [](std::size_t) { return mem::PageRange{}; }, nullptr);
        }
    }

    // Invalidate this thread's cache; other threads' stale entries are
    // harmless because serials are never reused.
    if (tls_cached_serial == serial_) {
        tls_cached_serial = 0;
        tls_cached_ctx = nullptr;
    }
    std::erase_if(tls_entries,
                  [this](const TlsEntry &e) { return e.serial == serial_; });
}

ThreadCtx &
System::currentCtx()
{
    if (tls_cached_serial == serial_)
        return *tls_cached_ctx;
    for (auto &e : tls_entries) {
        if (e.serial == serial_) {
            tls_cached_serial = serial_;
            tls_cached_ctx = e.ctx.get();
            return *e.ctx;
        }
    }
    tls_entries.push_back(TlsEntry{serial_, std::make_unique<ThreadCtx>()});
    tls_cached_serial = serial_;
    tls_cached_ctx = tls_entries.back().ctx.get();
    return *tls_cached_ctx;
}

Component &
System::addComponent(std::unique_ptr<Component> comp)
{
    if (booted_)
        throw LoaderError("cannot add components after boot");
    componentNames_.push_back(comp->spec().name);
    components_.push_back(std::move(comp));
    return *components_.back();
}

void
System::boot()
{
    if (booted_)
        throw LoaderError("system already booted");

    // Loader: every component into its own cubicle, except colocated
    // ones, which join an earlier component's cubicle (coarser
    // partitioning, paper Fig. 9).
    for (auto &comp : components_) {
        const ComponentSpec spec = comp->spec();
        comp->sys_ = this;
        const std::string &hostName = comp->colocateWith_;
        if (!hostName.empty()) {
            Cid host = kNoCubicle;
            for (auto &other : components_) {
                if (other->self_ != kNoCubicle &&
                    monitor_.cubicle(other->self_).name == hostName) {
                    host = other->self_;
                }
            }
            if (host == kNoCubicle) {
                throw LoaderError("colocation target '" + hostName +
                                  "' not loaded before '" + spec.name +
                                  "'");
            }
            comp->self_ = host;
            continue;
        }
        comp->self_ = monitor_.loadComponent(spec);
    }

    // Builder: collect public entry points; each export slot is the
    // software analogue of a generated trampoline thunk.
    for (auto &comp : components_) {
        Exporter exp(comp->self_, comp->spec().kind, &exports_);
        comp->registerExports(exp);
    }

    booted_ = true;

    // Init hooks, each inside its own cubicle, in registration order
    // (components list dependencies first, like Unikraft's link order).
    for (auto &comp : components_) {
        runAs(comp->self_, [&] { comp->init(); });
    }
}

Cid
System::cidOf(std::string_view name) const
{
    // Component names resolve to the cubicle they were loaded into;
    // colocated components resolve to their host cubicle.
    for (std::size_t i = 0; i < components_.size(); ++i) {
        if (componentNames_[i] == name &&
            components_[i]->self_ != kNoCubicle) {
            return components_[i]->self_;
        }
    }
    throw LinkError("unknown component '" + std::string(name) + "'");
}

Component &
System::componentAt(Cid cid)
{
    for (auto &comp : components_) {
        if (comp->self_ == cid)
            return *comp;
    }
    throw LinkError("no component in cubicle " + std::to_string(cid));
}

WiringSnapshot
System::wiringSnapshot() const
{
    WiringSnapshot snap = monitor_.snapshotWiring();
    snap.exports.reserve(exports_.size());
    for (const ExportSlot &slot : exports_) {
        snap.exports.push_back(ExportWiring{
            slot.name, slot.owner, slot.ownerKind, slot.sigName});
    }
    return snap;
}

const ExportSlot &
System::findSlot(std::string_view comp_name, std::string_view fn_name,
                 const char *sig_name) const
{
    if (!booted_)
        throw LinkError("resolution before boot");
    const Cid cid = cidOf(comp_name);
    for (const auto &slot : exports_) {
        if (slot.owner == cid && slot.name == fn_name) {
            if (std::strcmp(slot.sigName, sig_name) != 0) {
                throw LinkError(
                    "signature mismatch resolving '" +
                    std::string(comp_name) + ":" + std::string(fn_name) +
                    "'");
            }
            return slot;
        }
    }
    throw LinkError("component '" + std::string(comp_name) +
                    "' does not export '" + std::string(fn_name) + "'");
}

void
System::touchSlow(ThreadCtx &ctx, const void *ptr, std::size_t len,
                  hw::Access access, bool commit)
{
    for (;;) {
        // Lifecycle: a destroy may have marked this thread's own
        // cubicle kDraining while it was computing. Unwind at the next
        // memory touch so the destroyer's quiesce wait terminates.
        if (ctx.current < monitor_.cubicleCount() &&
            !monitor_.cubicleAlive(ctx.current)) {
            stats_.add(Stat::unwoundCalls);
            throw PeerFault(ctx.current,
                            "cubicle '" +
                                monitor_.cubicle(ctx.current).name +
                                "' destroyed while running");
        }
        // Tag virtualisation: an eviction (or fault-in) since this
        // thread last loaded PKRU may have rebound a physical tag to a
        // different cubicle; a stale PKRU allowing that tag would now
        // reach the *new* owner's pages without faulting. The epoch
        // check models the PKRU-update IPI real MPK kernels broadcast.
        if (ctx.keyEpoch != monitor_.keyEpoch()) {
            ctx.keyEpoch = monitor_.keyEpoch();
            ctx.pkru = monitor_.pkruFor(ctx.current);
            clock().charge(hw::cost::kWrpkru);
            stats_.add(Stat::wrpkrus);
        }
        auto fault = monitor_.space().check(monitor_.mpk(), ctx.pkru,
                                            ptr, len, access);
        if (!fault)
            return;
        // Pointers outside the simulated space are host memory private
        // to the running component (unsimulated); allow them.
        if (fault->reason == hw::FaultReason::kOutsideSpace)
            return;
        // The thread's PKRU may be stale (a hot-window grant arrived
        // since the last switch): refresh it first, as the monitor's
        // fault handler would before escalating.
        const hw::Pkru fresh = monitor_.pkruFor(ctx.current);
        if (!(fresh == ctx.pkru)) {
            ctx.pkru = fresh;
            clock().charge(hw::cost::kWrpkru);
            stats_.add(Stat::wrpkrus);
            continue;
        }

        const bool pku_fault =
            fault->reason == hw::FaultReason::kPkuRead ||
            fault->reason == hw::FaultReason::kPkuWrite;
        const bool in_space = monitor_.space().contains(fault->addr);
        const std::size_t page =
            in_space ? monitor_.space().pageIndexOf(fault->addr) : 0;

        // Pages from the faulting one up to `next` go through without
        // a trap. A grant-cache hit (simulated TLB: this thread already
        // took a full trap-and-map on this page as this cubicle, and no
        // revocation happened since) absorbs the fault, so two cubicles
        // alternating accesses through one window stop ping-ponging the
        // tag; checkAccess admits the fault in place.
        std::size_t next = 0;
        if (pku_fault && in_space &&
            ctx.grants.hit(page, ctx.current, monitor_.windowEpoch())) {
            stats_.add(Stat::grantCacheHits);
            next = page + 1;
        } else if (!commit) {
            next = monitor_.admit(*fault, ctx.current);
        } else {
            // Capture the revocation epoch BEFORE the fault walk: if a
            // close races between the walk and the insert, the cached
            // entry carries the pre-close epoch and can never hit.
            const uint64_t epoch = monitor_.windowEpoch();
            if (monitor_.handleFault(*fault, ctx.current)) {
                if (pku_fault && in_space)
                    ctx.grants.insert(page, ctx.current, epoch);
                // handleFault retagged the faulting page; re-check
                // continues with the next page, guaranteeing progress.
                continue;
            }
        }
        if (next == 0) {
            stats_.add(Stat::violations);
            throw hw::CubicleFault(*fault);
        }
        const auto *end = static_cast<const std::byte *>(ptr) + len;
        const std::byte *resume = monitor_.space().pageAt(next);
        if (resume >= end)
            return;
        len = static_cast<std::size_t>(end - resume);
        ptr = resume;
    }
}

void
System::checkExec(const void *ptr)
{
    if (mode_ < IsolationMode::kNoAcl)
        return;
    ThreadCtx &ctx = currentCtx();
    // Bounded retry: an exec fault can be a parked code page of the
    // *running* cubicle (its tag was evicted while it kept executing
    // host-side). Fault the cubicle back in and re-check once per
    // rebinding; genuine cross-cubicle exec faults still throw.
    for (int attempt = 0;; ++attempt) {
        if (ctx.keyEpoch != monitor_.keyEpoch()) {
            ctx.keyEpoch = monitor_.keyEpoch();
            ctx.pkru = monitor_.pkruFor(ctx.current);
            clock().charge(hw::cost::kWrpkru);
            stats_.add(Stat::wrpkrus);
        }
        auto fault = monitor_.space().check(monitor_.mpk(), ctx.pkru,
                                            ptr, 1, hw::Access::kExec);
        if (!fault)
            return;
        if (attempt < 2 && monitor_.parkedKey() >= 0 &&
            monitor_.space().contains(fault->addr) &&
            ctx.current != kNoCubicle) {
            const std::size_t page =
                monitor_.space().pageIndexOf(fault->addr);
            if (monitor_.pageMeta().at(page).owner == ctx.current &&
                monitor_.space().entryAt(page).pkey ==
                    static_cast<uint8_t>(monitor_.parkedKey())) {
                monitor_.ensureResident(ctx.current);
                continue;
            }
        }
        // Execute faults are never resolvable by trap-and-map: windows
        // grant data access only.
        stats_.add(Stat::violations);
        throw hw::CubicleFault(*fault);
    }
}

Cubicle &
System::heapCubicle(const char *op)
{
    const Cid cid = currentCtx().current;
    if (cid == kNoCubicle)
        throw LoaderError(std::string(op) + " outside any cubicle");
    Cubicle &cub = monitor_.cubicle(cid);
    // Lifecycle: the heap dies with its cubicle, and a destroyed
    // cubicle has cub.heap == nullptr until a restart rebuilds it.
    if (static_cast<LifeState>(cub.life.load()) != LifeState::kLive) {
        stats_.add(Stat::unwoundCalls);
        throw PeerFault(cid, std::string(op) + " in destroyed cubicle '" +
                                 cub.name + "'");
    }
    return cub;
}

void *
System::heapAlloc(std::size_t size)
{
    Cubicle &cub = heapCubicle("heapAlloc");
    void *p;
    {
        // Per-cubicle heap lock: threads in different cubicles allocate
        // in parallel; a chunk-source cross-call from here may nest
        // another cubicle's heapMu (acyclic routing, see cubicle.h).
        MutexLock lock(cub.heapMu);
        p = cub.heap->alloc(size);
    }
    if (!p)
        throw OutOfMemory("heap of '" + cub.name + "'");
    return p;
}

void *
System::heapAllocZeroed(std::size_t size)
{
    Cubicle &cub = heapCubicle("heapAlloc");
    void *p;
    {
        MutexLock lock(cub.heapMu);
        p = cub.heap->allocZeroed(size);
    }
    if (!p)
        throw OutOfMemory("heap of '" + cub.name + "'");
    return p;
}

void
System::heapFree(void *ptr)
{
    Cubicle &cub = heapCubicle("heapFree");
    MutexLock lock(cub.heapMu);
    cub.heap->free(ptr);
}

void
System::setHeapSource(Cid cid, mem::HeapAllocator::PageSource source,
                      mem::HeapAllocator::PageReturn ret)
{
    Cubicle &cub = monitor_.cubicle(cid);
    MutexLock lock(cub.heapMu);
    cub.heap->setSource(std::move(source), std::move(ret));
}

// ----------------------------------------------------------------------
// Lifecycle (DESIGN.md §15)
// ----------------------------------------------------------------------

std::size_t
System::destroyComponent(std::string_view name)
{
    const Cid cid = cidOf(name);
    // A cubicle cannot destroy itself (or any cubicle on its call
    // stack): the quiesce wait would count this thread's own in-flight
    // entry and never terminate. Crash *injection* for such cubicles
    // runs from a different thread — see the fault-injection tests.
    ThreadCtx &ctx = currentCtx();
    if (ctx.current == cid ||
        std::find(ctx.callStack.begin(), ctx.callStack.end(), cid) !=
            ctx.callStack.end()) {
        throw LoaderError("cubicle " + std::to_string(cid) +
                          " cannot destroy itself (quiesce deadlock)");
    }
    return monitor_.destroyCubicle(cid);
}

void
System::restartComponent(std::string_view name)
{
    const Cid cid = cidOf(name);
    Component &comp = componentAt(cid);
    const ComponentSpec spec = comp.spec();

    monitor_.restartCubicle(cid, spec);

    // Teardown runs AFTER the monitor swap, inside the fresh cubicle:
    // a crashed cubicle cannot execute code, so pre-crash handles are
    // released best-effort here. Stale heap pointers are absorbed by
    // HeapAllocator::owns; cross-calls into live peers work normally.
    runAs(cid, [&] { comp.teardown(); });
    runAs(cid, [&] { comp.init(); });
}

} // namespace cubicleos::core
