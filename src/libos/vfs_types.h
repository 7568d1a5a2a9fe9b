/**
 * @file
 * Shared plain-data types and error codes for the VFS layer.
 *
 * These are header-only PODs exchanged across cubicle boundaries by
 * pointer (through windows) or by value; they deliberately contain no
 * owning pointers.
 */

#ifndef CUBICLEOS_LIBOS_VFS_TYPES_H_
#define CUBICLEOS_LIBOS_VFS_TYPES_H_

#include <cstddef>
#include <cstdint>

#include "core/errors.h"

namespace cubicleos::libos {

/** POSIX-flavoured error codes returned as negative ints. */
enum VfsErr : int {
    kOk = 0,
    kErrNoEnt = -2,    ///< no such file or directory
    kErrIo = -5,       ///< I/O error
    kErrBadF = -9,     ///< bad file descriptor
    kErrBusy = -16,    ///< resource busy (e.g. borrowed blocks)
    kErrNoMem = -12,   ///< out of memory
    kErrExist = -17,   ///< file exists
    kErrNotDir = -20,  ///< not a directory
    kErrIsDir = -21,   ///< is a directory
    kErrInval = -22,   ///< invalid argument
    kErrMFile = -24,   ///< too many open files
    kErrNoSpc = -28,   ///< no space left on device
    kErrNameTooLong = -36,
    kErrNotEmpty = -39, ///< directory not empty
    kErrNoSys = -38,   ///< not implemented by this backend

    /**
     * The component that would have served this call is destroyed or
     * draining (DESIGN.md §15). Outside the POSIX range on purpose:
     * callers distinguish "your file is bad" from "your filesystem
     * died" and may retry after System::restartComponent. Defined as
     * core::kPeerFaultVerdict, the value core::catchPeerFault returns.
     */
    kErrPeerFault = core::kPeerFaultVerdict,
};

/** open() flags (subset). */
enum VfsOpenFlags : int {
    kRdOnly = 0x0,
    kWrOnly = 0x1,
    kRdWr = 0x2,
    kCreate = 0x40,
    kTrunc = 0x200,
    kAppend = 0x400,
    kDirectory = 0x10000,
};

/** lseek() whence values. */
enum VfsWhence : int {
    kSeekSet = 0,
    kSeekCur = 1,
    kSeekEnd = 2,
};

/** File mode bits (subset: type only). */
enum VfsMode : uint32_t {
    kModeFile = 0x8000,
    kModeDir = 0x4000,
};

/** Backend node identifier (inode number analogue). */
using NodeId = uint64_t;

/** Sentinel for "no node". */
inline constexpr NodeId kNoNode = ~0ull;

/** stat() result. */
struct VfsStat {
    uint64_t size = 0;
    uint32_t mode = 0;
    uint32_t nlink = 0;
    NodeId node = kNoNode;

    bool isDir() const { return (mode & kModeDir) != 0; }
    bool isFile() const { return (mode & kModeFile) != 0; }
};

/** readdir() entry. */
struct VfsDirent {
    char name[60];
    uint32_t type; ///< VfsMode of the entry
};

/**
 * A borrowed, grant-protected span of a file's backing blocks
 * (the zero-copy sendfile unit).
 *
 * Returned by vfs_borrow: the backend pins the blocks, adds them to a
 * window it owns, and opens that window for the peer cubicle named by
 * the caller. The span stays readable by the peer until vfs_release
 * is called with @p token. A span is always contiguous memory: the
 * backend may merge physically-adjacent blocks into one multi-block
 * span (readahead) but never stitches discontiguous blocks, so a
 * large file is still served as a sequence of borrows — just fewer,
 * larger ones. The caller bounds span length with the borrow's
 * max_len argument.
 */
struct VfsSpan {
    const std::byte *ptr = nullptr; ///< first borrowed byte
    uint64_t len = 0;               ///< span length (contiguous bytes)
    uint64_t token = 0;             ///< handle for vfs_release
};

/** Maximum path length accepted by the VFS. */
inline constexpr std::size_t kMaxPath = 512;

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_VFS_TYPES_H_
