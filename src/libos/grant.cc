#include "libos/grant.h"

namespace cubicleos::libos {

// --- GrantWindow ------------------------------------------------------

GrantWindow::GrantWindow(core::System &sys, const PeerSet &peers,
                         bool hot)
    : sys_(&sys), owner_(sys.currentCubicle()), peers_(peers)
{
    wid_ = sys.windowInit();
    if (hot) {
        hot_ = sys.windowSetHot(wid_);
        // A hot window keeps its ACL open across calls (§8), its key
        // in every peer's PKRU; without a key the open ACL still
        // serves a window its owner stages by hand (lwip's netdev
        // window), and a Grant closes it at its first release.
        open(peers_);
    }
}

GrantWindow::~GrantWindow() { destroy(); }

void
GrantWindow::moveFrom(GrantWindow &other) noexcept
{
    sys_ = other.sys_;
    wid_ = other.wid_;
    owner_ = other.owner_;
    hot_ = other.hot_;
    peers_ = other.peers_;
    staged_ = other.staged_;
    other.sys_ = nullptr;
    other.wid_ = core::kInvalidWindow;
    other.staged_ = nullptr;
}

void
GrantWindow::stage(const void *ptr, std::size_t n)
{
    sys_->windowAdd(wid_, ptr, n);
}

void
GrantWindow::unstage(const void *ptr)
{
    sys_->windowRemove(wid_, ptr);
}

void
GrantWindow::open(const PeerSet &peers)
{
    for (core::Cid peer : peers)
        sys_->windowOpen(wid_, peer);
}

void
GrantWindow::prestage(const PeerSet &peers, Prestage access)
{
    if (access == Prestage::kNone)
        return;
    const hw::Access acc = access == Prestage::kWrite ? hw::Access::kWrite
                                                      : hw::Access::kRead;
    for (core::Cid peer : peers)
        sys_->windowPrestage(wid_, peer, acc);
}

void
GrantWindow::closeAll()
{
    sys_->windowCloseAll(wid_);
}

void
GrantWindow::reclaim()
{
    sys_->windowReclaim(wid_);
}

void
GrantWindow::restage(const void *ptr, std::size_t n)
{
    if (staged_ == ptr)
        return;
    if (staged_)
        sys_->windowRemove(wid_, staged_);
    sys_->windowAdd(wid_, ptr, n);
    staged_ = ptr;
}

void
GrantWindow::destroy() noexcept
{
    if (!sys_)
        return;
    core::System &sys = *sys_;
    const core::Cid owner = owner_;
    const core::Wid wid = wid_;
    sys_ = nullptr;
    wid_ = core::kInvalidWindow;
    staged_ = nullptr;
    try {
        // Only the owner may destroy its window; re-enter it when the
        // destructor runs in another cubicle's context (or none).
        if (sys.currentCubicle() == owner)
            sys.windowDestroy(wid);
        else
            sys.runAs(owner, [&] { sys.windowDestroy(wid); });
    } catch (...) {
        // Torn down outside any valid context (WindowError), or the
        // owner cubicle was destroyed under us (PeerFault): the
        // monitor already revoked and reclaimed the window during
        // destroyCubicle, so there is nothing left to undo.
    }
}

// --- Grant ------------------------------------------------------------

Grant::Grant(core::System &sys, GrantWindow &win, const PeerSet &peers,
             const void *buf, std::size_t n, Prestage prestage,
             const PeerSet &prestage_peers)
    : win_(&win)
{
    // Host-private buffers (outside the simulated machine) need no
    // window: they are unsimulated thread-private memory, consistent
    // with System::touch's policy.
    if (!sys.monitor().space().contains(buf))
        return;
    if (win.hot()) {
        // Pooled hot window: ACL already open, dedicated key already
        // in every peer's PKRU; just swap the staged range if the
        // buffer moved. Nothing to undo per call.
        win.restage(buf, n);
        return;
    }
    win.stage(buf, n);
    buf_ = buf; // armed: release() undoes from here on
    try {
        win.open(peers);
        win.prestage(prestage_peers.size() ? prestage_peers : peers,
                     prestage);
    } catch (...) {
        // A refused peer: the destructor of a half-built Grant never
        // runs, so undo the staging here.
        release();
        throw;
    }
}

void
Grant::release() noexcept
{
    if (!buf_)
        return;
    const void *buf = buf_;
    buf_ = nullptr;
    try {
        // Close first, so no peer can fault the pages back, then hand
        // them home in one retag while the range is still staged: the
        // owner's next touch would trap for exactly these pages.
        win_->closeAll();
        win_->reclaim();
        win_->unstage(buf);
    } catch (...) {
        // Release must not throw out of a destructor. A destroyed
        // owner's window is already revoked; a skipped hand-back only
        // leaves the owner's next touch to trap the pages home.
    }
}

void
Grant::moveFrom(Grant &other) noexcept
{
    win_ = other.win_;
    buf_ = other.buf_;
    other.buf_ = nullptr;
}

} // namespace cubicleos::libos
