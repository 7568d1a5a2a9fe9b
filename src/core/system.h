/**
 * @file
 * The CubicleOS system facade: boot, cross-cubicle calls, checked
 * memory access, and the public window API.
 *
 * This is the one header applications and components include. It ties
 * together the trusted pieces — builder (component registry + trampoline
 * generation), loader, and memory monitor — and manages the per-thread
 * execution context (current cubicle + PKRU), mirroring MPK's per-thread
 * permission semantics.
 */

#ifndef CUBICLEOS_CORE_SYSTEM_H_
#define CUBICLEOS_CORE_SYSTEM_H_

#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/component.h"
#include "core/errors.h"
#include "core/monitor.h"
#include "core/stats.h"

namespace cubicleos::core {

class System;

/**
 * Per-thread cache of resolved window grants — the simulated TLB.
 *
 * After trap-and-map resolves a fault, the page's tag belongs to the
 * accessor until someone else faults it away; but two cubicles
 * ping-ponging accesses through one window would otherwise take a trap
 * + retag on every alternation. The cache remembers "(page, cubicle)
 * was granted at revocation epoch E": a later PKU fault on that page
 * by the same cubicle is absorbed without a trap, exactly as a TLB
 * entry carrying a permitted translation absorbs the walk.
 *
 * Correctness: a hit is only trusted while the monitor's revocation
 * epoch still equals E. Any close/remove/destroy bumps the epoch, so
 * stale grants fall back to the fault path, whose ACL walk then
 * rejects them — the cache can only ever re-grant what a full
 * trap-and-map at insert time already granted, within the same lazy
 * revocation bounds as §5.6's tag consistency.
 *
 * Direct-mapped by (page, cubicle) — like TLB entries tagged with an
 * address-space id, one thread's entries for different cubicles
 * coexist across cross-call switches. Collisions just evict (a miss
 * is only a performance event).
 */
struct GrantCache {
    static constexpr std::size_t kSlots = 64;

    struct Entry {
        std::size_t page = 0;
        Cid cid = kNoCubicle;
        uint64_t epoch = 0;
    };

    std::array<Entry, kSlots> slots{};

    static std::size_t slotOf(std::size_t page, Cid cid)
    {
        return (page + static_cast<std::size_t>(cid) * 7919) % kSlots;
    }

    bool hit(std::size_t page, Cid cid, uint64_t currentEpoch) const
    {
        const Entry &e = slots[slotOf(page, cid)];
        return e.cid == cid && e.page == page && e.epoch == currentEpoch;
    }

    void insert(std::size_t page, Cid cid, uint64_t epoch)
    {
        slots[slotOf(page, cid)] = Entry{page, cid, epoch};
    }
};

/**
 * Per-thread execution state: the currently executing cubicle, the
 * thread's PKRU register, the cross-call stack used for return CFI,
 * and the thread's grant cache (simulated TLB).
 */
struct ThreadCtx {
    Cid current = kNoCubicle;
    hw::Pkru pkru = hw::Pkru::denyAll();
    std::vector<Cid> callStack;
    GrantCache grants;
    /**
     * The monitor's key-binding epoch this thread's pkru was computed
     * at. Tag virtualisation rebinds physical tags (eviction); a PKRU
     * computed before a rebind may still allow a tag that now backs a
     * *different* cubicle, so checked accesses compare this against
     * Monitor::keyEpoch() and recompute the register on mismatch —
     * the simulated equivalent of the PKRU-update IPI a real kernel
     * would broadcast (see DESIGN.md §14).
     */
    uint64_t keyEpoch = 0;
};

/**
 * A resolved cross-cubicle callable for signature @c Sig.
 *
 * Produced by System::resolve(). Invoking it goes through the
 * cross-cubicle call trampoline (permission + stack switch, CFI, edge
 * accounting) unless the callee is a shared cubicle, which executes
 * directly with the caller's privileges (paper §3 step ❹).
 */
template <typename Sig>
class CrossFn;

/**
 * RAII trampoline context: performs the cubicle switch on construction
 * and the return switch on destruction (exception-safe).
 *
 * The guard is also the lifecycle gate (DESIGN.md §15): entry into a
 * draining or dead cubicle is refused with core::PeerFault, and every
 * successful entry is tracked in the callee's in-flight counter so
 * Monitor::destroyCubicle can quiesce before reclaiming.
 */
class CrossCallGuard {
  public:
    /** @throws PeerFault when @p callee is not kLive. */
    CrossCallGuard(System &sys, ThreadCtx &ctx, Cid callee);
    ~CrossCallGuard();

    CrossCallGuard(const CrossCallGuard &) = delete;
    CrossCallGuard &operator=(const CrossCallGuard &) = delete;

  private:
    System &sys_;
    ThreadCtx &ctx_;
    Cid caller_;
    hw::Pkru savedPkru_;
    /** The in-flight count this guard holds a ref on, once entered. */
    std::atomic<uint32_t> *inFlight_ = nullptr;
};

/**
 * The CubicleOS instance.
 *
 * Typical lifecycle:
 * @code
 *   System sys(cfg);
 *   sys.addComponent(std::make_unique<MyComponent>());
 *   ...
 *   sys.boot();
 *   auto f = sys.resolve<int(int)>("comp", "fn");
 *   sys.runAs(sys.cidOf("app"), [&] { f(42); });
 * @endcode
 */
class System {
  public:
    explicit System(SystemConfig cfg = {});
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    // ------------------------------------------------------------------
    // Builder: component registration and boot
    // ------------------------------------------------------------------

    /** Registers a component; must precede boot(). */
    Component &addComponent(std::unique_ptr<Component> comp);

    /**
     * Loads every registered component into its cubicle, collects
     * exports (generating trampolines), and runs init() hooks in
     * registration order, each inside its own cubicle.
     */
    void boot();

    bool booted() const { return booted_; }

    /** Looks up a component's cubicle ID by name. */
    Cid cidOf(std::string_view name) const;

    /** Returns the component loaded into @p cid. */
    Component &componentAt(Cid cid);

    /** Number of loaded cubicles. */
    std::size_t cubicleCount() const { return monitor_.cubicleCount(); }

    // ------------------------------------------------------------------
    // Lifecycle (DESIGN.md §15)
    // ------------------------------------------------------------------

    /**
     * Kills @p name's cubicle with crash semantics — no teardown hook
     * runs; the component is treated exactly like a crashed process —
     * and reclaims its pages, windows, grants and key
     * (Monitor::destroyCubicle). In-flight cross-calls into it unwind
     * with PeerFault; the rest of the deployment keeps serving.
     * @return pages reclaimed.
     * @throws LoaderError when called from inside the victim (the
     *         quiesce would wait on the calling thread forever).
     */
    std::size_t destroyComponent(std::string_view name);

    /**
     * Relaunches a destroyed component in place: the monitor reloads
     * the image through the verify cache and replays recorded grants
     * (Monitor::restartCubicle), then teardown() releases pre-crash
     * handles and init() re-runs — both inside the fresh cubicle.
     */
    void restartComponent(std::string_view name);

    // ------------------------------------------------------------------
    // Dynamic symbol resolution (through trampolines)
    // ------------------------------------------------------------------

    /**
     * Resolves @p fn_name exported by @p comp_name with signature Sig.
     * @throws LinkError on unknown names or signature mismatch.
     */
    template <typename Sig>
    CrossFn<Sig> resolve(std::string_view comp_name,
                         std::string_view fn_name);

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /** Runs @p f with the calling thread switched into cubicle @p cid. */
    template <typename F>
    decltype(auto) runAs(Cid cid, F &&f)
    {
        ThreadCtx &ctx = currentCtx();
        CrossCallGuard guard(*this, ctx, cid);
        return std::forward<F>(f)();
    }

    /** The cubicle the calling thread currently executes in. */
    Cid currentCubicle() { return currentCtx().current; }

    /** The calling thread's context (monitor/trampoline internal). */
    ThreadCtx &currentCtx();

    // ------------------------------------------------------------------
    // Checked memory access (the simulated MPK enforcement point)
    // ------------------------------------------------------------------

    /**
     * Verifies that the current cubicle may access [ptr, ptr+len).
     *
     * Faults are delivered to the monitor's trap-and-map handler; an
     * unresolvable fault throws hw::CubicleFault. No-op in modes
     * without MPK enforcement.
     */
    void touch(const void *ptr, std::size_t len, hw::Access access)
    {
        if (mode_ < IsolationMode::kNoAcl)
            return;
        ThreadCtx &ctx = currentCtx();
        touchSlow(ctx, ptr, len, access);
    }

    /** Checked memcpy: the shared LIBC cubicle's copy primitive. */
    void memcpyChecked(void *dst, const void *src, std::size_t n)
    {
        touch(dst, n, hw::Access::kWrite);
        touch(src, n, hw::Access::kRead);
        std::memcpy(dst, src, n);
    }

    /** Checked memset. */
    void memsetChecked(void *dst, int value, std::size_t n)
    {
        touch(dst, n, hw::Access::kWrite);
        std::memset(dst, value, n);
    }

    /**
     * Verifies the current cubicle may start executing at @p ptr,
     * under the modified-MPK execute semantics. Used by the CFI tests
     * and the trampoline guard model.
     */
    void checkExec(const void *ptr);

    // ------------------------------------------------------------------
    // Window API (paper Table 1), on behalf of the current cubicle
    // ------------------------------------------------------------------

    // In the Unikraft baseline the window-management code is not part
    // of the build at all (it belongs to the CubicleOS port), so the
    // whole API degenerates to no-ops there.

    Wid windowInit()
    {
        if (mode_ == IsolationMode::kUnikraft)
            return 0;
        return monitor_.windowInit(currentCtx().current);
    }
    void windowAdd(Wid wid, const void *ptr, std::size_t size)
    {
        if (mode_ == IsolationMode::kUnikraft)
            return;
        monitor_.windowAdd(currentCtx().current, wid, ptr, size);
    }
    void windowRemove(Wid wid, const void *ptr)
    {
        if (mode_ == IsolationMode::kUnikraft)
            return;
        monitor_.windowRemove(currentCtx().current, wid, ptr);
    }
    void windowOpen(Wid wid, Cid peer)
    {
        if (mode_ == IsolationMode::kUnikraft)
            return;
        monitor_.windowOpen(currentCtx().current, wid, peer);
    }
    void windowClose(Wid wid, Cid peer)
    {
        if (mode_ == IsolationMode::kUnikraft)
            return;
        monitor_.windowClose(currentCtx().current, wid, peer);
    }
    void windowCloseAll(Wid wid)
    {
        if (mode_ == IsolationMode::kUnikraft)
            return;
        monitor_.windowCloseAll(currentCtx().current, wid);
    }
    void windowDestroy(Wid wid)
    {
        if (mode_ == IsolationMode::kUnikraft)
            return;
        monitor_.windowDestroy(currentCtx().current, wid);
    }
    /** Promotes a window to a hot window (paper §8 proposal). */
    void windowSetHot(Wid wid)
    {
        if (mode_ == IsolationMode::kUnikraft)
            return;
        monitor_.windowSetHot(currentCtx().current, wid);
    }
    /**
     * Prestaging hint: eagerly retags @p wid's ranges to @p peer now
     * instead of at @p peer's first-touch fault (Monitor::
     * windowPrestage). @return pages retagged (0 in Unikraft mode).
     */
    std::size_t windowPrestage(Wid wid, Cid peer, hw::Access expected)
    {
        if (mode_ == IsolationMode::kUnikraft)
            return 0;
        return monitor_.windowPrestage(currentCtx().current, wid, peer,
                                       expected);
    }

    // ------------------------------------------------------------------
    // Per-cubicle memory
    // ------------------------------------------------------------------

    /** Allocates from the current cubicle's heap sub-allocator. */
    void *heapAlloc(std::size_t size);
    /** Zero-initialised variant. */
    void *heapAllocZeroed(std::size_t size);
    /** Frees memory allocated by the current cubicle. */
    void heapFree(void *ptr);

    /**
     * Rewires @p cid's heap page source to the given functions (used by
     * boot code to route chunk requests through the ALLOC component).
     */
    void setHeapSource(Cid cid, mem::HeapAllocator::PageSource source,
                       mem::HeapAllocator::PageReturn ret);

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    Monitor &monitor() { return monitor_; }
    Stats &stats() { return stats_; }

    /**
     * Plain-data snapshot of the booted system's wiring — cubicles,
     * live windows, exports (core/wiring.h) — as input to the
     * isolation linter and auditor (src/audit).
     */
    WiringSnapshot wiringSnapshot() const;

    hw::CycleClock &clock() { return monitor_.clock(); }
    IsolationMode mode() const { return mode_; }
    const SystemConfig &config() const { return monitor_.config(); }

    // Internal: trampoline implementation detail, public for CrossFn.
    template <typename R, typename FnT, typename... Args>
    R crossCall(Cid callee, bool callee_shared, FnT &fn, Args &&...args)
    {
        // Shared cubicles execute with the caller's privileges and
        // never involve the runtime TCB (paper §3 step ❹).
        if (callee_shared || mode_ == IsolationMode::kUnikraft)
            return fn(std::forward<Args>(args)...);

        ThreadCtx &ctx = currentCtx();
        // Calls within one cubicle (colocated components) are plain
        // calls: no switch, no cross-cubicle edge.
        if (ctx.current == callee)
            return fn(std::forward<Args>(args)...);
        stats_.countCall(ctx.current, callee);

        CrossCallGuard guard(*this, ctx, callee);
        return fn(std::forward<Args>(args)...);
    }

  private:
    friend class CrossCallGuard;

    void touchSlow(ThreadCtx &ctx, const void *ptr, std::size_t len,
                   hw::Access access);

    /**
     * The running cubicle, for heap operation @p op.
     * @throws LoaderError outside any cubicle; PeerFault (counted as an
     *         unwound call) when the cubicle is no longer live.
     */
    Cubicle &heapCubicle(const char *op);

    const ExportSlot &findSlot(std::string_view comp_name,
                               std::string_view fn_name,
                               const char *sig_name) const;

    Stats stats_;
    Monitor monitor_;
    IsolationMode mode_;
    uint64_t serial_;

    std::vector<std::unique_ptr<Component>> components_;
    std::vector<std::string> componentNames_;
    std::vector<ExportSlot> exports_;
    bool booted_ = false;
};

template <typename R, typename... Args>
class CrossFn<R(Args...)> {
  public:
    CrossFn() = default;

    CrossFn(System *sys, const std::function<R(Args...)> *target,
            Cid callee, bool callee_shared)
        : sys_(sys), target_(target), callee_(callee),
          shared_(callee_shared)
    {}

    /** True if resolution succeeded (non-default-constructed). */
    explicit operator bool() const { return target_ != nullptr; }

    R operator()(Args... args) const
    {
        return sys_->crossCall<R>(
            callee_, shared_, *target_, std::forward<Args>(args)...);
    }

    /** The callee's cubicle ID. */
    Cid callee() const { return callee_; }

  private:
    System *sys_ = nullptr;
    const std::function<R(Args...)> *target_ = nullptr;
    Cid callee_ = kNoCubicle;
    bool shared_ = false;
};

template <typename Sig>
CrossFn<Sig>
System::resolve(std::string_view comp_name, std::string_view fn_name)
{
    const ExportSlot &slot =
        findSlot(comp_name, fn_name, typeid(Sig).name());
    return CrossFn<Sig>(
        this, static_cast<const std::function<Sig> *>(slot.fn.get()),
        slot.owner, slot.ownerKind == CubicleKind::kShared);
}

/**
 * RAII bump allocation from the current cubicle's stack arena.
 *
 * Buffers that are passed by pointer across cubicles must live in
 * cubicle-owned, tagged memory; StackFrame is the idiom for "stack
 * variables" such as Fig. 2's BUF. Allocations are page-aligned on
 * request to avoid unintended sharing through page-granular windows
 * (paper §5.3 note on alignment).
 */
class StackFrame {
  public:
    explicit StackFrame(System &sys)
        : sys_(sys), cid_(sys.currentCubicle()),
          saved_(sys.monitor().stackOffset(cid_))
    {}

    ~StackFrame() { sys_.monitor().stackRestore(cid_, saved_); }

    StackFrame(const StackFrame &) = delete;
    StackFrame &operator=(const StackFrame &) = delete;

    /** Allocates @p size bytes with @p align alignment. */
    void *alloc(std::size_t size, std::size_t align = 16)
    {
        return sys_.monitor().stackAlloc(cid_, size, align);
    }

    /** Page-aligned allocation padded to whole pages. */
    void *allocPageAligned(std::size_t size)
    {
        return sys_.monitor().stackAlloc(
            cid_, hw::pagesFor(size) * hw::kPageSize, hw::kPageSize);
    }

  private:
    System &sys_;
    Cid cid_;
    std::size_t saved_;
};

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_SYSTEM_H_
