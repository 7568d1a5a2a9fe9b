#include "libos/ukapi.h"

#include <cstring>

namespace cubicleos::libos {

using core::catchPeerFault;

CubicleFileApi::CubicleFileApi(core::System &sys,
                               const std::string &backend_name,
                               bool hot_windows)
    : sys_(sys),
      vfsCid_(sys.cidOf("vfscore")),
      backendCid_(sys.cidOf(backend_name)),
      peers_{vfsCid_, backendCid_},
      open_(sys.resolve<int(const char *, int)>("vfscore", "vfs_open")),
      close_(sys.resolve<int(int)>("vfscore", "vfs_close")),
      read_(sys.resolve<int64_t(int, void *, std::size_t)>("vfscore",
                                                           "vfs_read")),
      write_(sys.resolve<int64_t(int, const void *, std::size_t)>(
          "vfscore", "vfs_write")),
      pread_(sys.resolve<int64_t(int, void *, std::size_t, uint64_t)>(
          "vfscore", "vfs_pread")),
      pwrite_(
          sys.resolve<int64_t(int, const void *, std::size_t, uint64_t)>(
              "vfscore", "vfs_pwrite")),
      lseek_(sys.resolve<int64_t(int, int64_t, int)>("vfscore",
                                                     "vfs_lseek")),
      fstat_(sys.resolve<int(int, VfsStat *)>("vfscore", "vfs_fstat")),
      stat_(sys.resolve<int(const char *, VfsStat *)>("vfscore",
                                                      "vfs_stat")),
      unlink_(sys.resolve<int(const char *)>("vfscore", "vfs_unlink")),
      mkdir_(sys.resolve<int(const char *)>("vfscore", "vfs_mkdir")),
      readdir_(sys.resolve<int(const char *, uint64_t, VfsDirent *)>(
          "vfscore", "vfs_readdir")),
      ftruncate_(
          sys.resolve<int(int, uint64_t)>("vfscore", "vfs_ftruncate")),
      fsync_(sys.resolve<int(int)>("vfscore", "vfs_fsync")),
      borrow_(sys.resolve<int(int, uint64_t, core::Cid, std::size_t,
                              VfsSpan *)>("vfscore", "vfs_borrow")),
      release_(sys.resolve<int(int, uint64_t)>("vfscore", "vfs_release"))
{
    // Persistent arena window over the transfer page, open for the
    // whole file stack; one window per peer set keeps the descriptor
    // arrays short (paper: <10 windows per cubicle). The arena owns
    // the page and frees it on destruction. It asks to be hot (§8):
    // the page ping-pongs between app, VFSCORE and backend on every
    // call, and — unlike the I/O buffers — it holds no application
    // data, so trading its temporal isolation for a dedicated key
    // costs nothing and spares three-plus faults per call whenever an
    // unrelated revocation bumps the grant epoch.
    xfer_ = XferArena(sys_, peers_);

    // Per-I/O window, managed by a Grant around each call: the buffer
    // is prestaged for the backend and handed back to the app after
    // the call, one retag each way and no trap. In hot-window mode it
    // gets a dedicated MPK key (paper §8) if the monitor has one, its
    // ACL stays open, and per-call work reduces to re-staging the
    // range when the buffer changes.
    ioWin_ = GrantWindow(sys_, peers_, hot_windows);
}

const char *
CubicleFileApi::stagePath(const char *path)
{
    xfer_.touchForWrite(0, kMaxPath);
    char *staged = xfer_.base();
    std::strncpy(staged, path, kMaxPath - 1);
    staged[kMaxPath - 1] = '\0';
    return staged;
}

int
CubicleFileApi::open(const char *path, int flags)
{
    return catchPeerFault<int>([&] { return open_(stagePath(path), flags); });
}

int
CubicleFileApi::close(int fd)
{
    return catchPeerFault<int>([&] { return close_(fd); });
}

int64_t
CubicleFileApi::read(int fd, void *buf, std::size_t n)
{
    // Only the backend touches the data buffer (VFSCORE checks its
    // window without taking the page), and on a read it always writes
    // into it: declare that so the backend's first store is a
    // prestaged retag, not a trap.
    return catchPeerFault<int64_t>([&] {
        Grant grant(sys_, ioWin_, peers_, buf, n, Prestage::kWrite,
                    PeerSet{backendCid_});
        return read_(fd, buf, n);
    });
}

int64_t
CubicleFileApi::write(int fd, const void *buf, std::size_t n)
{
    return catchPeerFault<int64_t>([&] {
        Grant grant(sys_, ioWin_, peers_, buf, n, Prestage::kRead,
                    PeerSet{backendCid_});
        return write_(fd, buf, n);
    });
}

int64_t
CubicleFileApi::pread(int fd, void *buf, std::size_t n, uint64_t off)
{
    return catchPeerFault<int64_t>([&] {
        Grant grant(sys_, ioWin_, peers_, buf, n, Prestage::kWrite,
                    PeerSet{backendCid_});
        return pread_(fd, buf, n, off);
    });
}

int64_t
CubicleFileApi::pwrite(int fd, const void *buf, std::size_t n,
                       uint64_t off)
{
    return catchPeerFault<int64_t>([&] {
        Grant grant(sys_, ioWin_, peers_, buf, n, Prestage::kRead,
                    PeerSet{backendCid_});
        return pwrite_(fd, buf, n, off);
    });
}

int64_t
CubicleFileApi::lseek(int fd, int64_t off, int whence)
{
    return catchPeerFault<int64_t>([&] { return lseek_(fd, off, whence); });
}

int
CubicleFileApi::stat(const char *path, VfsStat *st)
{
    // Stage both the path and the out-struct on the transfer page.
    return catchPeerFault<int>([&] {
        const char *p = stagePath(path);
        auto *out = reinterpret_cast<VfsStat *>(xfer_.at(kMaxPath));
        const int rc = stat_(p, out);
        sys_.touch(out, sizeof(*out), hw::Access::kRead);
        *st = *out;
        return rc;
    });
}

int
CubicleFileApi::fstat(int fd, VfsStat *st)
{
    return catchPeerFault<int>([&] {
        xfer_.touchForWrite(0, hw::kPageSize);
        auto *out = reinterpret_cast<VfsStat *>(xfer_.at(kMaxPath));
        const int rc = fstat_(fd, out);
        sys_.touch(out, sizeof(*out), hw::Access::kRead);
        *st = *out;
        return rc;
    });
}

int
CubicleFileApi::unlink(const char *path)
{
    return catchPeerFault<int>([&] { return unlink_(stagePath(path)); });
}

int
CubicleFileApi::mkdir(const char *path)
{
    return catchPeerFault<int>([&] { return mkdir_(stagePath(path)); });
}

int
CubicleFileApi::ftruncate(int fd, uint64_t size)
{
    return catchPeerFault<int>([&] { return ftruncate_(fd, size); });
}

int
CubicleFileApi::fsync(int fd)
{
    return catchPeerFault<int>([&] { return fsync_(fd); });
}

int
CubicleFileApi::readdir(const char *path, uint64_t idx, VfsDirent *out)
{
    return catchPeerFault<int>([&] {
        const char *p = stagePath(path);
        auto *staged = reinterpret_cast<VfsDirent *>(xfer_.at(kMaxPath));
        const int rc = readdir_(p, idx, staged);
        sys_.touch(staged, sizeof(*staged), hw::Access::kRead);
        *out = *staged;
        return rc;
    });
}

int
CubicleFileApi::borrow(int fd, uint64_t off, core::Cid peer,
                       std::size_t max_len, VfsSpan *out)
{
    // The out-struct is staged past the path slot so a concurrent
    // stagePath cannot clobber it; the arena window already covers it
    // for VFSCORE and the backend.
    return catchPeerFault<int>([&] {
        auto *staged = reinterpret_cast<VfsSpan *>(xfer_.at(kMaxPath));
        sys_.touch(staged, sizeof(*staged), hw::Access::kWrite);
        *staged = VfsSpan{};
        const int rc = borrow_(fd, off, peer, max_len, staged);
        sys_.touch(staged, sizeof(*staged), hw::Access::kRead);
        *out = *staged;
        return rc;
    });
}

int
CubicleFileApi::release(int fd, uint64_t token)
{
    return catchPeerFault<int>([&] { return release_(fd, token); });
}

int
mountRoot(core::System &sys, const std::string &backend)
{
    auto vfs_mount =
        sys.resolve<int(const char *)>("vfscore", "vfs_mount");
    const core::Cid vfs = sys.cidOf("vfscore");

    core::StackFrame frame(sys);
    char *staged = static_cast<char *>(frame.allocPageAligned(kMaxPath));
    sys.touch(staged, kMaxPath, hw::Access::kWrite);
    std::strncpy(staged, backend.c_str(), kMaxPath - 1);
    staged[kMaxPath - 1] = '\0';

    const PeerSet peers{vfs};
    GrantWindow win(sys, peers);
    int rc;
    {
        Grant grant(sys, win, peers, staged, kMaxPath);
        rc = vfs_mount(staged);
    }
    return rc;
}

} // namespace cubicleos::libos
