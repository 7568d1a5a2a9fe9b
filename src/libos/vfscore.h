/**
 * @file
 * The VFSCORE cubicle: virtual file system layer (Unikraft's vfscore).
 *
 * Maintains the mount table and per-process file descriptors, and
 * dispatches operations to file system backends through a callback
 * table. As in the paper (§5.2), backend callbacks are resolved as
 * dynamic symbols at mount time so every backend call crosses a
 * trampoline — this produces the VFSCORE→RAMFS edges of Fig. 5/Fig. 8.
 *
 * Pointer arguments (paths, I/O buffers) are passed through unchanged:
 * data moves zero-copy through windows opened by the original caller
 * for both VFSCORE and the backend (the nested-call rule, §5.6).
 */

#ifndef CUBICLEOS_LIBOS_VFSCORE_H_
#define CUBICLEOS_LIBOS_VFSCORE_H_

#include <string>
#include <vector>

#include "builder/image.h"
#include "core/system.h"
#include "libos/libc.h"
#include "libos/vfs_types.h"

namespace cubicleos::libos {

/** The isolated VFS component. */
class VfsComponent : public core::Component {
  public:
    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = "vfscore";
        s.kind = core::CubicleKind::kIsolated;
        s.image = builder::componentImage(builder::ImageSeed::kVfscore);
        return s;
    }

    void registerExports(core::Exporter &exp) override;
    void init() override;

  private:
    /** Resolved backend callback table (one per mounted fs). */
    struct BackendOps {
        core::CrossFn<NodeId(const char *)> lookup;
        core::CrossFn<NodeId(const char *, uint32_t)> create;
        core::CrossFn<int(const char *)> remove;
        core::CrossFn<int(const char *)> mkdir;
        core::CrossFn<int64_t(NodeId, uint64_t, void *, std::size_t)>
            read;
        core::CrossFn<int64_t(NodeId, uint64_t, const void *,
                              std::size_t)>
            write;
        core::CrossFn<int(NodeId, uint64_t)> truncate;
        core::CrossFn<int(NodeId, VfsStat *)> getattr;
        core::CrossFn<int(const char *, uint64_t, VfsDirent *)> readdir;
        core::CrossFn<int(NodeId)> sync;
        /** Zero-copy span borrow/release (optional backend capability). */
        core::CrossFn<int(NodeId, uint64_t, core::Cid, std::size_t,
                          VfsSpan *)>
            borrow;
        core::CrossFn<int(NodeId, uint64_t)> release;
        std::string fsname;
        bool mounted = false;
        bool canBorrow = false;
    };

    /** Open file description. */
    struct FileDesc {
        bool used = false;
        NodeId node = kNoNode;
        uint64_t offset = 0;
        int flags = 0;
    };

    int doMount(const char *fsname);
    int doOpen(const char *path, int flags);
    int doClose(int fd);
    int64_t doRead(int fd, void *buf, std::size_t n);
    int64_t doWrite(int fd, const void *buf, std::size_t n);
    int64_t doPread(int fd, void *buf, std::size_t n, uint64_t off);
    int64_t doPwrite(int fd, const void *buf, std::size_t n,
                     uint64_t off);
    int64_t doLseek(int fd, int64_t off, int whence);
    int doFstat(int fd, VfsStat *st);
    int doStat(const char *path, VfsStat *st);
    int doUnlink(const char *path);
    int doMkdir(const char *path);
    int doReaddir(const char *path, uint64_t idx, VfsDirent *out);
    int doFtruncate(int fd, uint64_t size);
    int doFsync(int fd);
    int doBorrow(int fd, uint64_t off, core::Cid peer,
                 std::size_t max_len, VfsSpan *out);
    int doRelease(int fd, uint64_t token);

    FileDesc *fdAt(int fd);
    /** Validates and bounds a caller-supplied path (checked access). */
    bool checkPath(const char *path);

    BackendOps backend_;
    std::vector<FileDesc> fds_;
    Libc libc_;
};

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_VFSCORE_H_
