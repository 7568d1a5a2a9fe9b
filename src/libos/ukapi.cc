#include "libos/ukapi.h"

#include <cstring>
#include <type_traits>

namespace cubicleos::libos {

using core::catchPeerFault;

CubicleFileApi::CubicleFileApi(core::System &sys,
                               const std::string &backend_name,
                               bool hot_windows)
    : sys_(sys), owner_(sys.currentCubicle()),
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
    // The staging page asks for a hot window (§8): it changes hands on
    // every path or stat call and holds no application data, so with a
    // dedicated key the grant around each call is a no-op restage. A
    // window the monitor has no key for is granted per call, like an
    // I/O buffer.
    stageWin_ = GrantWindow(sys_, peers_, /*hot=*/true);

    // Per-I/O window, managed by a Grant around each call: the buffer
    // is prestaged for the backend and handed back to the app after
    // the call, one retag each way and no trap. In hot-window mode it
    // gets a dedicated MPK key (paper §8) if the monitor has one, its
    // ACL stays open, and per-call work reduces to re-staging the
    // range when the buffer changes.
    ioWin_ = GrantWindow(sys_, peers_, hot_windows);

    // Allocated last: a constructor that throws frees nothing by hand.
    staging_ = sys.monitor().allocPagesFor(owner_, 1, mem::PageType::kHeap);
    if (!staging_.valid())
        throw core::OutOfMemory("CubicleFileApi staging page");
}

CubicleFileApi::~CubicleFileApi()
{
    if (!staging_.valid())
        return;
    stageWin_.destroy();
    try {
        sys_.monitor().freePages(staging_, owner_);
    } catch (...) {
        // A destructor must not throw; an unfreed page only leaks.
    }
}

template <typename Out, typename Call>
int
CubicleFileApi::staged(const char *path, Out *out, Call &&call)
{
    constexpr bool has_out = !std::is_void_v<Out>;
    // The path slot opens the page; the out-struct sits past it. A
    // path that does not fit the slot is refused, not cut: a cut path
    // can name another file.
    char *const page = reinterpret_cast<char *>(staging_.ptr);
    Out *const out_slot =
        static_cast<Out *>(static_cast<void *>(page + kMaxPath));
    const std::size_t path_len = path ? strnlen(path, kMaxPath) : 0;
    if (path_len >= kMaxPath)
        return kErrNameTooLong;
    return catchPeerFault<int>([&] {
        sys_.touch(page, hw::kPageSize, hw::Access::kWrite);
        if (path)
            std::memcpy(page, path, path_len + 1);
        if constexpr (has_out) {
            static_assert(kMaxPath + sizeof(Out) <= hw::kPageSize);
            *out_slot = Out{};
        }
        int rc;
        {
            Grant grant(sys_, stageWin_, peers_, page, hw::kPageSize,
                        has_out ? Prestage::kWrite : Prestage::kRead,
                        PeerSet{backendCid_});
            rc = call(page, out_slot);
        }
        if constexpr (has_out) {
            sys_.touch(out_slot, sizeof(Out), hw::Access::kRead);
            *out = *out_slot;
        }
        return rc;
    });
}

int
CubicleFileApi::open(const char *path, int flags)
{
    return staged<void>(path, nullptr, [&](const char *p, void *) {
        return open_(p, flags);
    });
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
    return staged(path, st,
                  [&](const char *p, VfsStat *out) { return stat_(p, out); });
}

int
CubicleFileApi::fstat(int fd, VfsStat *st)
{
    return staged(nullptr, st,
                  [&](const char *, VfsStat *out) { return fstat_(fd, out); });
}

int
CubicleFileApi::unlink(const char *path)
{
    return staged<void>(path, nullptr,
                        [&](const char *p, void *) { return unlink_(p); });
}

int
CubicleFileApi::mkdir(const char *path)
{
    return staged<void>(path, nullptr,
                        [&](const char *p, void *) { return mkdir_(p); });
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
    return staged(path, out, [&](const char *p, VfsDirent *staged_out) {
        return readdir_(p, idx, staged_out);
    });
}

int
CubicleFileApi::borrow(int fd, uint64_t off, core::Cid peer,
                       std::size_t max_len, VfsSpan *out)
{
    return staged(nullptr, out, [&](const char *, VfsSpan *staged_out) {
        return borrow_(fd, off, peer, max_len, staged_out);
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
