/**
 * @file
 * The grant layer: shared window-management glue for every port.
 *
 * Every porting layer used to hand-roll its own add/open…remove/close
 * sequences over the raw System::window* API. This header extracts
 * that plumbing into three reusable types, so the window discipline of
 * the paper — Fig. 2's open→call→close pattern, the nested-call rule
 * (§5.6: the caller opens the window for every cubicle the call will
 * traverse) and hot windows (§8) — is implemented exactly once:
 *
 *  - PeerSet      — the set of cubicles a call traverses (ACL set).
 *  - GrantWindow  — an owned window descriptor. Remembers the owner
 *                   cubicle at construction so it can be destroyed
 *                   from any context, and the staged range of a hot
 *                   window for pooled reuse across calls. The ACL
 *                   lives in the monitor only; hot() is the monitor's
 *                   answer to the hot request.
 *  - Grant        — RAII bracket of one cross-call: stages the buffer,
 *                   opens the ACL, prestages it for the peers that
 *                   will touch it, and on destruction (including via
 *                   exceptions thrown by the callee) closes the ACL,
 *                   hands the pages back to the owner in one retag
 *                   and removes the range.
 *
 * One Grant brackets every argument of a file call alike: a data
 * buffer in place, and paths and out-structs on the page-aligned
 * staging page (§5.3) that CubicleFileApi copies them to.
 *
 * Raw windowAdd/windowOpen/windowCloseAll calls outside grant.cc are
 * forbidden in src/libos, src/apps, src/baselines and bench (enforced
 * by the grant_wiring_lint ctest); ports go through these types.
 *
 * Thread-safety: the grant layer deliberately holds NO locks of its
 * own (the locking_wrapper_lint ctest keeps it that way). A
 * GrantWindow/Grant instance belongs to one call edge and is
 * externally synchronised by its owner — concurrent edges use distinct
 * instances (one per worker, as in bench_mt_faults). All shared state
 * a grant touches lives behind the monitor's annotated lock hierarchy
 * (core/locking.h): every method here bottoms out in System::window*
 * calls that take windowMutex_ at rank kWindow, so grant code may be
 * called while holding nothing or locks ranked strictly below kWindow.
 */

#ifndef CUBICLEOS_LIBOS_GRANT_H_
#define CUBICLEOS_LIBOS_GRANT_H_

#include <array>
#include <cstddef>

#include "core/system.h"

namespace cubicleos::libos {

/**
 * The set of peer cubicles one grant opens a window for.
 *
 * Encodes the nested-call rule (§5.6): a call that traverses VFSCORE
 * and then RAMFS needs a window open for both, because the monitor
 * checks the ACL of whichever cubicle actually faults on the buffer.
 */
class PeerSet {
  public:
    static constexpr std::size_t kMaxPeers = 4;

    PeerSet() = default;
    PeerSet(std::initializer_list<core::Cid> cids)
    {
        for (core::Cid cid : cids)
            add(cid);
    }

    void add(core::Cid cid)
    {
        for (std::size_t i = 0; i < n_; ++i)
            if (cids_[i] == cid)
                return; // idempotent, even at capacity
        if (n_ >= kMaxPeers)
            throw core::WindowError("PeerSet: more than " +
                                    std::to_string(kMaxPeers) +
                                    " peers in one grant");
        cids_[n_++] = cid;
    }

    bool contains(core::Cid cid) const
    {
        for (std::size_t i = 0; i < n_; ++i)
            if (cids_[i] == cid)
                return true;
        return false;
    }

    std::size_t size() const { return n_; }
    const core::Cid *begin() const { return cids_.data(); }
    const core::Cid *end() const { return cids_.data() + n_; }

  private:
    std::array<core::Cid, kMaxPeers> cids_{};
    std::size_t n_ = 0;
};

/**
 * Expected-access declaration for window prestaging.
 *
 * A hint that the peers WILL touch the staged ranges, and how: the
 * grant layer then asks the monitor to retag eagerly
 * (System::windowPrestage) instead of letting every peer pay a
 * first-touch trap. kNone keeps the paper's fully lazy trap-and-map.
 * The hint never widens rights — the monitor prestages only for peers
 * already in the ACL — and it counts as declared usage for the
 * least-privilege audit, so only hint access that really happens.
 */
enum class Prestage : uint8_t {
    kNone,  ///< lazy: peers fault their first touch (paper default)
    kRead,  ///< peers will read the staged ranges
    kWrite, ///< peers will write (implies read) the staged ranges
};

/**
 * An owned window descriptor with construction-time owner capture.
 *
 * The monitor's ownership rule says only the owning cubicle may manage
 * or destroy a window, so the owner Cid is recorded when the window is
 * created (while executing inside that cubicle) and destruction
 * re-enters it with runAs if needed — never by digging the owner out
 * of page metadata at teardown time.
 *
 * A GrantWindow may be hot (paper §8): it gets a dedicated MPK key,
 * its ACL stays open across calls, and per-call work reduces to
 * re-staging the buffer range when it changes (restage()). This is the
 * grant layer's window pooling: one hot window is reused for every
 * call on the same edge instead of a fresh add/open/close cycle.
 * hot() is the monitor's answer, not the request: under tag
 * virtualisation a request made after the spare keys are spent gets
 * no key, and the window then works as an ordinary one.
 */
class GrantWindow {
  public:
    GrantWindow() = default;

    /**
     * Creates a window owned by the current cubicle. When @p hot, the
     * window asks the monitor for a dedicated key (hot() says whether
     * it got one) and opens the ACL for @p peers now, to stay open:
     * a Grant on a keyed window then only restages, and one on a
     * keyless window brackets each call like a cold one, closing the
     * ACL at its release. Otherwise @p peers is only remembered as the
     * default ACL set for open().
     */
    GrantWindow(core::System &sys, const PeerSet &peers = {},
                bool hot = false);
    ~GrantWindow();

    GrantWindow(const GrantWindow &) = delete;
    GrantWindow &operator=(const GrantWindow &) = delete;
    GrantWindow(GrantWindow &&other) noexcept { moveFrom(other); }
    GrantWindow &operator=(GrantWindow &&other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(other);
        }
        return *this;
    }

    /** Whether the monitor gave the window a dedicated key. */
    bool hot() const { return hot_; }
    core::Wid id() const { return wid_; }
    const PeerSet &peers() const { return peers_; }

    /** Adds [ptr, ptr+n) to the window (owner-context only). */
    void stage(const void *ptr, std::size_t n);
    /** Removes the range starting at @p ptr. */
    void unstage(const void *ptr);
    /** Opens the ACL for every cubicle in @p peers. */
    void open(const PeerSet &peers);
    /**
     * Retags the staged ranges now to every cubicle in @p peers, which
     * must be open, for the declared @p access (no-op for kNone): the
     * peers' first touches then take no trap.
     */
    void prestage(const PeerSet &peers, Prestage access);
    /** Closes the ACL for everyone (lazy revocation: no retag, §5.6). */
    void closeAll();
    /**
     * Hands the staged ranges back to the owner in one retag
     * (System::windowReclaim) instead of at its next touch.
     */
    void reclaim();

    /**
     * Hot-window re-staging: keeps exactly one staged range and swaps
     * it only when the buffer changes, so steady-state calls on the
     * same buffer cost nothing. Requires hot().
     */
    void restage(const void *ptr, std::size_t n);
    /** The currently staged hot range, or nullptr. */
    const void *staged() const { return staged_; }

    /**
     * Destroys the window, re-entering the owner cubicle when invoked
     * from another context. Idempotent; swallows WindowError during
     * teardown from outside any cubicle.
     */
    void destroy() noexcept;

    /**
     * Forgets the window WITHOUT destroying it. For crash teardown
     * (DESIGN.md §15): Monitor::destroyCubicle already revoked and
     * cleared every window the dead owner held, so the descriptor
     * this object remembers is stale — and its slot may have been
     * reissued to another cubicle, which destroy() must not touch.
     */
    void abandon() noexcept
    {
        sys_ = nullptr;
        wid_ = core::kInvalidWindow;
        staged_ = nullptr;
    }

  private:
    void moveFrom(GrantWindow &other) noexcept;

    core::System *sys_ = nullptr;
    core::Wid wid_ = core::kInvalidWindow;
    core::Cid owner_ = core::kNoCubicle;
    bool hot_ = false;
    PeerSet peers_;
    const void *staged_ = nullptr;
};

/**
 * RAII bracket of one buffer grant around a cross-cubicle call.
 *
 * Construction stages the caller's buffer in @p win, opens it for
 * @p peers and prestages it; destruction — on every path out of the
 * call, including an exception thrown by the callee — closes the ACL,
 * hands the buffer's pages back to the owner's tag in one retag
 * (System::windowReclaim) and removes the range, so the owner's next
 * access to its buffer takes no trap. A peer the monitor refuses to
 * open makes the constructor undo the same way and rethrow.
 *
 * Host-private buffers (outside the simulated machine) are skipped
 * entirely, consistent with System::touch's policy. On a hot window
 * the grant degenerates to restage(): the ACL is already open and the
 * owner reclaims lazily only when it really touches the pages again.
 */
class Grant {
  public:
    Grant() = default;
    /**
     * @p prestage optionally declares expected access for this one
     * call: the staged buffer is eagerly retagged right after the ACL
     * opens (GrantWindow::prestage), so the callee's first touch does
     * not trap. Ignored on hot windows (already eager).
     *
     * @p prestage_peers names the subset of @p peers that will really
     * touch the buffer (empty = all of them). Under the nested-call
     * rule the ACL often includes pass-through cubicles that only
     * forward the pointer — prestaging those would declare usage that
     * never happens and hide dead ACL entries from the
     * least-privilege audit.
     */
    Grant(core::System &sys, GrantWindow &win, const PeerSet &peers,
          const void *buf, std::size_t n,
          Prestage prestage = Prestage::kNone,
          const PeerSet &prestage_peers = {});
    ~Grant() { release(); }

    Grant(const Grant &) = delete;
    Grant &operator=(const Grant &) = delete;
    Grant(Grant &&other) noexcept { moveFrom(other); }
    Grant &operator=(Grant &&other) noexcept
    {
        if (this != &other) {
            release();
            moveFrom(other);
        }
        return *this;
    }

    /** True while a range is staged and open on a non-hot window. */
    bool active() const { return buf_ != nullptr; }

    /** Early release (idempotent; the destructor calls this). */
    void release() noexcept;

  private:
    void moveFrom(Grant &other) noexcept;

    GrantWindow *win_ = nullptr;
    const void *buf_ = nullptr;
};

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_GRANT_H_
