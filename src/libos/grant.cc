#include "libos/grant.h"

namespace cubicleos::libos {

// --- GrantWindow ------------------------------------------------------

GrantWindow::GrantWindow(core::System &sys, const PeerSet &peers,
                         bool hot, Prestage prestage)
    : sys_(&sys), owner_(sys.currentCubicle()), hot_(hot),
      prestage_(prestage), peers_(peers)
{
    wid_ = sys.windowInit();
    if (hot_) {
        sys.windowSetHot(wid_);
        // Hot windows keep their ACL open across calls (§8): the
        // dedicated key sits in every peer's PKRU permanently.
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
    prestage_ = other.prestage_;
    peers_ = other.peers_;
    opened_ = other.opened_;
    staged_ = other.staged_;
    other.sys_ = nullptr;
    other.wid_ = core::kInvalidWindow;
    other.staged_ = nullptr;
}

void
GrantWindow::stage(const void *ptr, std::size_t n)
{
    sys_->windowAdd(wid_, ptr, n);
    prestageNow();
}

void
GrantWindow::unstage(const void *ptr)
{
    sys_->windowRemove(wid_, ptr);
}

void
GrantWindow::open(const PeerSet &peers)
{
    for (core::Cid peer : peers) {
        sys_->windowOpen(wid_, peer);
        opened_.add(peer);
    }
    prestageNow();
}

void
GrantWindow::closeAll()
{
    sys_->windowCloseAll(wid_);
    opened_ = PeerSet{};
}

void
GrantWindow::reclaim()
{
    sys_->windowReclaim(wid_);
}

void
GrantWindow::prestageNow()
{
    // Persistent windows that stage per transfer (e.g. the RAMFS
    // per-peer block windows) re-enter here on every stage(); the
    // monitor re-retags already-granted pages idempotently, so the
    // cost stays one pkey_mprotect per staged run per peer.
    if (prestage_ == Prestage::kNone || hot_)
        return;
    const hw::Access acc = prestage_ == Prestage::kWrite
        ? hw::Access::kWrite
        : hw::Access::kRead;
    for (core::Cid peer : opened_)
        sys_->windowPrestage(wid_, peer, acc);
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
    prestageNow();
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
    win.open(peers);
    buf_ = buf; // armed: destructor must undo
    if (prestage != Prestage::kNone) {
        const hw::Access acc = prestage == Prestage::kWrite
            ? hw::Access::kWrite
            : hw::Access::kRead;
        const PeerSet &targets =
            prestage_peers.size() ? prestage_peers : peers;
        for (core::Cid peer : targets)
            sys.windowPrestage(win.id(), peer, acc);
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

// --- XferArena --------------------------------------------------------

XferArena::XferArena(core::System &sys, std::size_t pages,
                     const PeerSet &peers, bool hot)
    : sys_(&sys)
{
    const core::Cid self = sys.currentCubicle();
    range_ = sys.monitor().allocPagesFor(self, pages,
                                         mem::PageType::kHeap);
    if (!range_.valid())
        throw core::OutOfMemory("XferArena staging pages");
    win_ = GrantWindow(sys, peers, hot);
    win_.stage(range_.ptr, range_.sizeBytes());
    if (!hot)
        win_.open(peers);
}

XferArena::~XferArena() { reset(); }

void
XferArena::reset() noexcept
{
    if (!sys_)
        return;
    win_.destroy();
    if (range_.valid()) {
        try {
            sys_->monitor().freePages(range_);
        } catch (...) {
            // Teardown after the allocator is gone; pages die with it.
        }
    }
    range_ = {};
    sys_ = nullptr;
    bump_ = 0;
}

void
XferArena::moveFrom(XferArena &other) noexcept
{
    sys_ = other.sys_;
    range_ = other.range_;
    win_ = std::move(other.win_);
    bump_ = other.bump_;
    other.sys_ = nullptr;
    other.range_ = {};
    other.bump_ = 0;
}

char *
XferArena::at(std::size_t off) const
{
    if (off >= size())
        throw core::WindowError("XferArena: offset " +
                                std::to_string(off) +
                                " outside the arena");
    return base() + off;
}

void *
XferArena::alloc(std::size_t bytes, std::size_t align)
{
    const std::size_t off = (bump_ + align - 1) & ~(align - 1);
    if (off + bytes > size())
        throw core::OutOfMemory("XferArena slot");
    bump_ = off + bytes;
    return base() + off;
}

void
XferArena::touchForWrite(std::size_t off, std::size_t n)
{
    sys_->touch(at(off), n, hw::Access::kWrite);
}

} // namespace cubicleos::libos
