/**
 * @file
 * The RAMFS cubicle: an in-memory file system backend.
 *
 * File data lives in 4 KiB blocks allocated through cross-cubicle calls
 * into the ALLOC component (coarse-grained allocation, §6.4) and tagged
 * with RAMFS's key; reads and writes move data between these blocks and
 * caller-windowed buffers with the shared LIBC cubicle's checked memcpy
 * — the exact flow of the paper's Fig. 2/Fig. 4 walkthrough.
 *
 * The exported symbols form the backend callback table that VFSCORE
 * resolves at mount time ("ramfs_read", "ramfs_write", ...).
 */

#ifndef CUBICLEOS_LIBOS_RAMFS_H_
#define CUBICLEOS_LIBOS_RAMFS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "builder/image.h"
#include "core/system.h"
#include "libos/grant.h"
#include "libos/libc.h"
#include "libos/vfs_types.h"

namespace cubicleos::libos {

/** The isolated RAMFS backend component. */
class RamfsComponent : public core::Component {
  public:
    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = "ramfs";
        s.kind = core::CubicleKind::kIsolated;
        s.image = builder::componentImage(builder::ImageSeed::kRamfs);
        return s;
    }

    void registerExports(core::Exporter &exp) override;
    void init() override;

    /** Number of data blocks currently held (introspection). */
    std::size_t blocksHeld() const { return blocksHeld_; }

  private:
    static constexpr std::size_t kBlockSize = hw::kPageSize;
    /**
     * Borrow readahead cap: physically-contiguous blocks merged into
     * one span (and one staged window range). 8 blocks = 32 KiB, half
     * of LWIP's 64 KiB send buffer — sendZero is all-or-nothing, so a
     * full-buffer span would degenerate to stop-and-wait.
     */
    static constexpr std::size_t kReadAheadBlocks = 8;

    struct Node {
        uint32_t mode = 0;
        bool live = false;
        uint64_t size = 0;
        uint32_t pins = 0; ///< outstanding borrowed spans
        std::map<std::string, NodeId> children; ///< for directories
        std::vector<std::byte *> blocks;        ///< for files
    };

    /** One outstanding zero-copy span borrow. */
    struct Borrow {
        NodeId node = kNoNode;
        core::Cid peer = core::kNoCubicle;
        std::byte *block = nullptr;
    };

    NodeId doLookup(const char *path);
    /**
     * Creates @p path with @p mode and stores its node in @p id.
     * @return kOk, or why not: kErrInval (empty or relative path),
     *         kErrNoEnt (missing parent), kErrNotDir (a parent is a
     *         file), kErrExist, or kErrNameTooLong (a leaf too long
     *         for a VfsDirent name).
     */
    int doCreate(const char *path, uint32_t mode, NodeId *id);
    int doRemove(const char *path);
    int doMkdir(const char *path);
    int64_t doRead(NodeId node, uint64_t off, void *buf, std::size_t n);
    int64_t doWrite(NodeId node, uint64_t off, const void *buf,
                    std::size_t n);
    int doTruncate(NodeId node, uint64_t size);
    int doGetattr(NodeId node, VfsStat *st);
    int doReaddir(const char *path, uint64_t idx, VfsDirent *out);
    int doBorrow(NodeId node, uint64_t off, core::Cid peer,
                 std::size_t max_len, VfsSpan *out);
    int doRelease(NodeId node, uint64_t token);

    /** Copies a caller path (checked access) into a local string. */
    bool readPath(const char *path, std::string *out);
    /** Splits into (parent node, leaf name); root has no leaf. */
    int walkParent(const std::string &path, NodeId *parent,
                   std::string *leaf);
    NodeId childOf(NodeId dir, const std::string &name);
    Node *nodeAt(NodeId id);

    std::byte *allocBlock();
    void freeBlock(std::byte *block);
    void dropBlocks(Node &node, std::size_t keep);

    std::vector<Node> nodes_;
    Libc libc_;
    core::CrossFn<void *(std::size_t)> allocPages_;
    core::CrossFn<void(void *, std::size_t)> freePages_;
    std::size_t blocksHeld_ = 0;

    /** One staged multi-block run, shared by same-start borrows. */
    struct StagedRun {
        uint32_t refs = 0;
        std::size_t blocks = 0; ///< run length actually staged
    };

    // Zero-copy borrow state: one persistent RAMFS-owned window per
    // borrowing peer, run staging refcounted per (peer, start block) so
    // repeated borrows of the same run share one staged range.
    std::map<core::Cid, GrantWindow> peerWins_;
    std::map<std::pair<core::Cid, std::byte *>, StagedRun> stagedRefs_;
    std::map<uint64_t, Borrow> borrows_;
    uint64_t nextToken_ = 1;
};

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_RAMFS_H_
