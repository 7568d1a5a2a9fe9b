#include "libos/vfscore.h"

namespace cubicleos::libos {

using core::catchPeerFault;

void
VfsComponent::init()
{
    libc_ = Libc(*sys());
    fds_.resize(64);
}

bool
VfsComponent::checkPath(const char *path)
{
    if (!path)
        return false;
    // Only the backend reads the path (and bounds it): check the
    // caller's kMaxPath-byte slot without taking its page, which stays
    // on the backend's prestaged tag.
    sys()->checkAccess(path, kMaxPath, hw::Access::kRead);
    return true;
}

VfsComponent::FileDesc *
VfsComponent::fdAt(int fd)
{
    if (fd < 0 || static_cast<std::size_t>(fd) >= fds_.size())
        return nullptr;
    FileDesc &f = fds_[static_cast<std::size_t>(fd)];
    if (!f.used || f.owner != sys()->caller())
        return nullptr;
    return &f;
}

int
VfsComponent::doMount(const char *fsname)
{
    // The one name VFSCORE reads itself, once at boot.
    const std::size_t len = fsname ? libc_.strnlen(fsname, kMaxPath) : 0;
    if (len == 0 || len >= kMaxPath)
        return kErrInval;
    if (backend_.mounted)
        return kErrExist;

    // Resolve the backend callback table as dynamic symbols so every
    // entry goes through a cross-cubicle trampoline (paper §5.2).
    const std::string fs(fsname);
    core::System &s = *sys();
    try {
        backend_.lookup =
            s.resolve<NodeId(const char *)>(fs, fs + "_lookup");
        backend_.create =
            s.resolve<NodeId(const char *, uint32_t)>(fs, fs + "_create");
        backend_.remove = s.resolve<int(const char *)>(fs, fs + "_remove");
        backend_.mkdir = s.resolve<int(const char *)>(fs, fs + "_mkdir");
        backend_.read =
            s.resolve<int64_t(NodeId, uint64_t, void *, std::size_t)>(
                fs, fs + "_read");
        backend_.write = s.resolve<int64_t(NodeId, uint64_t, const void *,
                                           std::size_t)>(fs, fs + "_write");
        backend_.truncate =
            s.resolve<int(NodeId, uint64_t)>(fs, fs + "_truncate");
        backend_.getattr =
            s.resolve<int(NodeId, VfsStat *)>(fs, fs + "_getattr");
        backend_.readdir =
            s.resolve<int(const char *, uint64_t, VfsDirent *)>(
                fs, fs + "_readdir");
        backend_.sync = s.resolve<int(NodeId)>(fs, fs + "_sync");
        backend_.borrow =
            s.resolve<int(NodeId, uint64_t, core::Cid, std::size_t,
                          VfsSpan *)>(fs, fs + "_borrow");
        backend_.release =
            s.resolve<int(NodeId, uint64_t)>(fs, fs + "_release");
    } catch (const core::LinkError &) {
        return kErrNoSys;
    }
    backend_.fsname = fs;
    backend_.mounted = true;
    return kOk;
}

int
VfsComponent::doOpen(const char *path, int flags)
{
    if (!backend_.mounted)
        return kErrIo;
    if (!checkPath(path))
        return kErrInval;

    NodeId node = backend_.lookup(path);
    if (node == kNoNode) {
        if (!(flags & kCreate))
            return kErrNoEnt;
        node = backend_.create(path, kModeFile);
        if (node == kNoNode)
            return kErrNoEnt;
    } else if (flags & kTrunc) {
        const int rc = backend_.truncate(node, 0);
        if (rc < 0)
            return rc;
    }

    for (std::size_t fd = 0; fd < fds_.size(); ++fd) {
        if (!fds_[fd].used) {
            uint64_t off = 0;
            if (flags & kAppend) {
                VfsStat st;
                if (backend_.getattr(node, &st) == kOk)
                    off = st.size;
            }
            fds_[fd] = FileDesc{true, node, off, flags, sys()->caller()};
            return static_cast<int>(fd);
        }
    }
    return kErrMFile;
}

int
VfsComponent::doClose(int fd)
{
    FileDesc *f = fdAt(fd);
    if (!f)
        return kErrBadF;
    f->used = false;
    return kOk;
}

int64_t
VfsComponent::doRead(int fd, void *buf, std::size_t n)
{
    FileDesc *f = fdAt(fd);
    if (!f)
        return kErrBadF;
    // The VFS validates the destination before dispatching (Fig. 2's
    // VFS checks BUF before passing it on), but never reads or writes
    // it: only the backend copies. So it checks the window without
    // taking the page, which stays on the backend's prestaged tag.
    sys()->checkAccess(buf, n, hw::Access::kWrite);
    const int64_t got = backend_.read(f->node, f->offset, buf, n);
    if (got > 0)
        f->offset += static_cast<uint64_t>(got);
    return got;
}

int64_t
VfsComponent::doWrite(int fd, const void *buf, std::size_t n)
{
    FileDesc *f = fdAt(fd);
    if (!f)
        return kErrBadF;
    sys()->checkAccess(buf, n, hw::Access::kRead);
    const int64_t put = backend_.write(f->node, f->offset, buf, n);
    if (put > 0)
        f->offset += static_cast<uint64_t>(put);
    return put;
}

int64_t
VfsComponent::doPread(int fd, void *buf, std::size_t n, uint64_t off)
{
    FileDesc *f = fdAt(fd);
    if (!f)
        return kErrBadF;
    sys()->checkAccess(buf, n, hw::Access::kWrite);
    return backend_.read(f->node, off, buf, n);
}

int64_t
VfsComponent::doPwrite(int fd, const void *buf, std::size_t n,
                       uint64_t off)
{
    FileDesc *f = fdAt(fd);
    if (!f)
        return kErrBadF;
    sys()->checkAccess(buf, n, hw::Access::kRead);
    return backend_.write(f->node, off, buf, n);
}

int64_t
VfsComponent::doLseek(int fd, int64_t off, int whence)
{
    FileDesc *f = fdAt(fd);
    if (!f)
        return kErrBadF;
    int64_t base = 0;
    switch (whence) {
      case kSeekSet:
        base = 0;
        break;
      case kSeekCur:
        base = static_cast<int64_t>(f->offset);
        break;
      case kSeekEnd: {
        VfsStat st;
        const int rc = backend_.getattr(f->node, &st);
        if (rc < 0)
            return rc;
        base = static_cast<int64_t>(st.size);
        break;
      }
      default:
        return kErrInval;
    }
    const int64_t pos = base + off;
    if (pos < 0)
        return kErrInval;
    f->offset = static_cast<uint64_t>(pos);
    return pos;
}

int
VfsComponent::doFstat(int fd, VfsStat *st)
{
    FileDesc *f = fdAt(fd);
    if (!f)
        return kErrBadF;
    return backend_.getattr(f->node, st);
}

int
VfsComponent::doStat(const char *path, VfsStat *st)
{
    if (!backend_.mounted || !checkPath(path))
        return kErrInval;
    const NodeId node = backend_.lookup(path);
    if (node == kNoNode)
        return kErrNoEnt;
    return backend_.getattr(node, st);
}

int
VfsComponent::doUnlink(const char *path)
{
    if (!backend_.mounted || !checkPath(path))
        return kErrInval;
    return backend_.remove(path);
}

int
VfsComponent::doMkdir(const char *path)
{
    if (!backend_.mounted || !checkPath(path))
        return kErrInval;
    return backend_.mkdir(path);
}

int
VfsComponent::doReaddir(const char *path, uint64_t idx, VfsDirent *out)
{
    if (!backend_.mounted || !checkPath(path))
        return kErrInval;
    return backend_.readdir(path, idx, out);
}

int
VfsComponent::doFtruncate(int fd, uint64_t size)
{
    FileDesc *f = fdAt(fd);
    if (!f)
        return kErrBadF;
    return backend_.truncate(f->node, size);
}

int
VfsComponent::doFsync(int fd)
{
    FileDesc *f = fdAt(fd);
    if (!f)
        return kErrBadF;
    return backend_.sync(f->node);
}

int
VfsComponent::doBorrow(int fd, uint64_t off, core::Cid peer,
                       std::size_t max_len, VfsSpan *out)
{
    FileDesc *f = fdAt(fd);
    if (!f)
        return kErrBadF;
    if (!out)
        return kErrInval;
    // Validate the out-struct like any other caller pointer before the
    // backend writes through it (Fig. 2 discipline).
    sys()->checkAccess(out, sizeof(*out), hw::Access::kWrite);
    return backend_.borrow(f->node, off, peer, max_len, out);
}

int
VfsComponent::doRelease(int fd, uint64_t token)
{
    FileDesc *f = fdAt(fd);
    if (!f)
        return kErrBadF;
    return backend_.release(f->node, token);
}

void
VfsComponent::registerExports(core::Exporter &exp)
{
    exp.fn<int(const char *)>("vfs_mount", [this](const char *fs) {
        return catchPeerFault<int>([&] { return doMount(fs); });
    });
    exp.fn<int(const char *, int)>(
        "vfs_open", [this](const char *p, int flags) {
            return catchPeerFault<int>([&] { return doOpen(p, flags); });
        });
    exp.fn<int(int)>("vfs_close", [this](int fd) {
        return catchPeerFault<int>([&] { return doClose(fd); });
    });
    exp.fn<int64_t(int, void *, std::size_t)>(
        "vfs_read", [this](int fd, void *buf, std::size_t n) {
            return catchPeerFault<int64_t>(
                [&] { return doRead(fd, buf, n); });
        });
    exp.fn<int64_t(int, const void *, std::size_t)>(
        "vfs_write", [this](int fd, const void *buf, std::size_t n) {
            return catchPeerFault<int64_t>(
                [&] { return doWrite(fd, buf, n); });
        });
    exp.fn<int64_t(int, void *, std::size_t, uint64_t)>(
        "vfs_pread",
        [this](int fd, void *buf, std::size_t n, uint64_t off) {
            return catchPeerFault<int64_t>(
                [&] { return doPread(fd, buf, n, off); });
        });
    exp.fn<int64_t(int, const void *, std::size_t, uint64_t)>(
        "vfs_pwrite",
        [this](int fd, const void *buf, std::size_t n, uint64_t off) {
            return catchPeerFault<int64_t>(
                [&] { return doPwrite(fd, buf, n, off); });
        });
    exp.fn<int64_t(int, int64_t, int)>(
        "vfs_lseek", [this](int fd, int64_t off, int whence) {
            return catchPeerFault<int64_t>(
                [&] { return doLseek(fd, off, whence); });
        });
    exp.fn<int(int, VfsStat *)>(
        "vfs_fstat", [this](int fd, VfsStat *st) {
            return catchPeerFault<int>([&] { return doFstat(fd, st); });
        });
    exp.fn<int(const char *, VfsStat *)>(
        "vfs_stat", [this](const char *p, VfsStat *st) {
            return catchPeerFault<int>([&] { return doStat(p, st); });
        });
    exp.fn<int(const char *)>("vfs_unlink", [this](const char *p) {
        return catchPeerFault<int>([&] { return doUnlink(p); });
    });
    exp.fn<int(const char *)>("vfs_mkdir", [this](const char *p) {
        return catchPeerFault<int>([&] { return doMkdir(p); });
    });
    exp.fn<int(const char *, uint64_t, VfsDirent *)>(
        "vfs_readdir", [this](const char *p, uint64_t i, VfsDirent *d) {
            return catchPeerFault<int>([&] { return doReaddir(p, i, d); });
        });
    exp.fn<int(int, uint64_t)>(
        "vfs_ftruncate", [this](int fd, uint64_t size) {
            return catchPeerFault<int>([&] { return doFtruncate(fd, size); });
        });
    exp.fn<int(int)>("vfs_fsync", [this](int fd) {
        return catchPeerFault<int>([&] { return doFsync(fd); });
    });
    exp.fn<int(int, uint64_t, core::Cid, std::size_t, VfsSpan *)>(
        "vfs_borrow",
        [this](int fd, uint64_t off, core::Cid peer, std::size_t max_len,
               VfsSpan *out) {
            return catchPeerFault<int>(
                [&] { return doBorrow(fd, off, peer, max_len, out); });
        });
    exp.fn<int(int, uint64_t)>(
        "vfs_release", [this](int fd, uint64_t token) {
            return catchPeerFault<int>([&] { return doRelease(fd, token); });
        });
}

} // namespace cubicleos::libos
