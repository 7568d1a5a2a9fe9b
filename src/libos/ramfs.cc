#include "libos/ramfs.h"

#include <cstring>

namespace cubicleos::libos {

void
RamfsComponent::init()
{
    libc_ = Libc(*sys());
    allocPages_ =
        sys()->resolve<void *(std::size_t)>("alloc", "alloc_pages");
    freePages_ =
        sys()->resolve<void(void *, std::size_t)>("alloc", "free_pages");

    nodes_.clear();
    Node root;
    root.mode = kModeDir;
    root.live = true;
    nodes_.push_back(std::move(root));
}

RamfsComponent::Node *
RamfsComponent::nodeAt(NodeId id)
{
    if (id >= nodes_.size() || !nodes_[id].live)
        return nullptr;
    return &nodes_[id];
}

bool
RamfsComponent::readPath(const char *path, std::string *out)
{
    if (!path)
        return false;
    const std::size_t n = libc_.strnlen(path, kMaxPath);
    if (n == 0 || n >= kMaxPath)
        return false;
    // strnlen's checked reads retagged the pages; a plain copy is now
    // safe under the simulated MPK.
    out->assign(path, n);
    return out->front() == '/';
}

NodeId
RamfsComponent::childOf(NodeId dir, const std::string &name)
{
    Node *d = nodeAt(dir);
    if (!d || !(d->mode & kModeDir))
        return kNoNode;
    auto it = d->children.find(name);
    return it == d->children.end() ? kNoNode : it->second;
}

int
RamfsComponent::walkParent(const std::string &path, NodeId *parent,
                           std::string *leaf)
{
    NodeId cur = 0; // root
    std::size_t pos = 1;
    std::string last;
    while (pos < path.size()) {
        std::size_t slash = path.find('/', pos);
        if (slash == std::string::npos)
            slash = path.size();
        const std::string part = path.substr(pos, slash - pos);
        pos = slash + 1;
        if (part.empty())
            continue;
        if (!last.empty()) {
            cur = childOf(cur, last);
            if (cur == kNoNode)
                return kErrNoEnt;
            if (!(nodes_[cur].mode & kModeDir))
                return kErrNotDir;
        }
        last = part;
    }
    if (last.empty())
        return kErrInval; // root itself has no parent entry
    *parent = cur;
    *leaf = last;
    return kOk;
}

NodeId
RamfsComponent::doLookup(const char *path)
{
    std::string p;
    if (!readPath(path, &p))
        return kNoNode;
    if (p == "/")
        return 0;
    NodeId parent;
    std::string leaf;
    if (walkParent(p, &parent, &leaf) != kOk)
        return kNoNode;
    return childOf(parent, leaf);
}

int
RamfsComponent::doCreate(const char *path, uint32_t mode, NodeId *id)
{
    std::string p;
    if (!readPath(path, &p))
        return kErrInval;
    if (p == "/")
        return kErrExist;
    NodeId parent;
    std::string leaf;
    const int rc = walkParent(p, &parent, &leaf);
    if (rc != kOk)
        return rc;
    Node *dir = nodeAt(parent);
    if (!dir || !(dir->mode & kModeDir))
        return kErrNotDir;
    if (dir->children.count(leaf))
        return kErrExist;
    if (leaf.size() >= sizeof(VfsDirent{}.name))
        return kErrNameTooLong;

    // Reuse a dead slot if possible.
    *id = nodes_.size();
    for (NodeId i = 0; i < nodes_.size(); ++i) {
        if (!nodes_[i].live) {
            *id = i;
            break;
        }
    }
    Node fresh;
    fresh.mode = mode ? mode : kModeFile;
    fresh.live = true;
    if (*id == nodes_.size())
        nodes_.push_back(std::move(fresh));
    else
        nodes_[*id] = std::move(fresh);
    nodeAt(parent)->children.emplace(leaf, *id);
    return kOk;
}

int
RamfsComponent::doMkdir(const char *path)
{
    NodeId id;
    return doCreate(path, kModeDir, &id);
}

int
RamfsComponent::doRemove(const char *path)
{
    std::string p;
    if (!readPath(path, &p))
        return kErrInval;
    NodeId parent;
    std::string leaf;
    const int rc = walkParent(p, &parent, &leaf);
    if (rc != kOk)
        return rc;
    const NodeId id = childOf(parent, leaf);
    Node *node = nodeAt(id);
    if (!node)
        return kErrNoEnt;
    if ((node->mode & kModeDir) && !node->children.empty())
        return kErrNotEmpty;
    if (node->pins > 0)
        return kErrBusy; // borrowed spans still reference the blocks
    dropBlocks(*node, 0);
    node->live = false;
    nodeAt(parent)->children.erase(leaf);
    return kOk;
}

std::byte *
RamfsComponent::allocBlock()
{
    // Coarse-grained allocation goes to the ALLOC cubicle — the hot
    // RAMFS→ALLOC edge of Fig. 8.
    auto *block = static_cast<std::byte *>(
        allocPages_(kBlockSize / hw::kPageSize));
    if (block)
        ++blocksHeld_;
    return block;
}

void
RamfsComponent::freeBlock(std::byte *block)
{
    if (!block)
        return;
    freePages_(block, kBlockSize / hw::kPageSize);
    --blocksHeld_;
}

void
RamfsComponent::dropBlocks(Node &node, std::size_t keep)
{
    while (node.blocks.size() > keep) {
        freeBlock(node.blocks.back());
        node.blocks.pop_back();
    }
}

int64_t
RamfsComponent::doRead(NodeId id, uint64_t off, void *buf, std::size_t n)
{
    Node *node = nodeAt(id);
    if (!node)
        return kErrNoEnt;
    if (node->mode & kModeDir)
        return kErrIsDir;
    if (off >= node->size)
        return 0;
    n = std::min<uint64_t>(n, node->size - off);

    std::size_t done = 0;
    auto *out = static_cast<std::byte *>(buf);
    while (done < n) {
        const std::size_t blk = (off + done) / kBlockSize;
        const std::size_t bo = (off + done) % kBlockSize;
        const std::size_t chunk = std::min(n - done, kBlockSize - bo);
        if (blk < node->blocks.size() && node->blocks[blk]) {
            libc_.memcpy(out + done, node->blocks[blk] + bo, chunk);
            sys()->stats().countDataCopy(chunk); // block → caller buffer
        } else {
            libc_.memset(out + done, 0, chunk); // hole reads as zeros
        }
        done += chunk;
    }
    return static_cast<int64_t>(done);
}

int64_t
RamfsComponent::doWrite(NodeId id, uint64_t off, const void *buf,
                        std::size_t n)
{
    Node *node = nodeAt(id);
    if (!node)
        return kErrNoEnt;
    if (node->mode & kModeDir)
        return kErrIsDir;

    const uint64_t end = off + n;
    const std::size_t need_blocks =
        static_cast<std::size_t>((end + kBlockSize - 1) / kBlockSize);
    while (node->blocks.size() < need_blocks) {
        std::byte *block = allocBlock();
        if (!block)
            return kErrNoSpc;
        node->blocks.push_back(block);
    }

    std::size_t done = 0;
    const auto *in = static_cast<const std::byte *>(buf);
    while (done < n) {
        const std::size_t blk = (off + done) / kBlockSize;
        const std::size_t bo = (off + done) % kBlockSize;
        const std::size_t chunk = std::min(n - done, kBlockSize - bo);
        libc_.memcpy(node->blocks[blk] + bo, in + done, chunk);
        sys()->stats().countDataCopy(chunk); // caller buffer → block
        done += chunk;
    }
    node->size = std::max(node->size, end);
    return static_cast<int64_t>(done);
}

int
RamfsComponent::doTruncate(NodeId id, uint64_t size)
{
    Node *node = nodeAt(id);
    if (!node)
        return kErrNoEnt;
    if (node->mode & kModeDir)
        return kErrIsDir;
    if (size < node->size && node->pins > 0)
        return kErrBusy; // shrinking could free borrowed blocks
    if (size < node->size) {
        dropBlocks(*node,
                   static_cast<std::size_t>(
                       (size + kBlockSize - 1) / kBlockSize));
        // Zero the tail of the last kept block so re-extension reads
        // zeros, matching POSIX truncate semantics.
        if (size % kBlockSize != 0 && !node->blocks.empty()) {
            std::byte *last = node->blocks[size / kBlockSize];
            if (last) {
                std::memset(last + size % kBlockSize, 0,
                            kBlockSize - size % kBlockSize);
            }
        }
    }
    node->size = size;
    return kOk;
}

int
RamfsComponent::doGetattr(NodeId id, VfsStat *st)
{
    Node *node = nodeAt(id);
    if (!node)
        return kErrNoEnt;
    VfsStat local;
    local.size = node->size;
    local.mode = node->mode;
    local.nlink = 1;
    local.node = id;
    sys()->touch(st, sizeof(*st), hw::Access::kWrite);
    *st = local;
    return kOk;
}

int
RamfsComponent::doReaddir(const char *path, uint64_t idx, VfsDirent *out)
{
    const NodeId id = doLookup(path);
    Node *node = nodeAt(id);
    if (!node)
        return kErrNoEnt;
    if (!(node->mode & kModeDir))
        return kErrNotDir;
    if (idx >= node->children.size())
        return kErrNoEnt; // end of directory
    auto it = node->children.begin();
    std::advance(it, static_cast<long>(idx));

    VfsDirent local{};
    std::snprintf(local.name, sizeof(local.name), "%s",
                  it->first.c_str());
    local.type = nodes_[it->second].mode;
    sys()->touch(out, sizeof(*out), hw::Access::kWrite);
    *out = local;
    return kOk;
}

int
RamfsComponent::doBorrow(NodeId id, uint64_t off, core::Cid peer,
                         std::size_t max_len, VfsSpan *out)
{
    Node *node = nodeAt(id);
    if (!node)
        return kErrNoEnt;
    if (node->mode & kModeDir)
        return kErrIsDir;
    if (!out || peer >= sys()->cubicleCount())
        return kErrInval;

    sys()->touch(out, sizeof(*out), hw::Access::kWrite);
    if (off >= node->size) {
        *out = VfsSpan{}; // len 0 signals EOF
        return kOk;
    }

    const std::size_t blk = off / kBlockSize;
    const std::size_t bo = off % kBlockSize;
    while (node->blocks.size() <= blk) {
        std::byte *fresh = allocBlock();
        if (!fresh)
            return kErrNoSpc;
        node->blocks.push_back(fresh);
    }
    std::byte *block = node->blocks[blk];
    if (!block) {
        // A hole cannot be lent by reference: materialise the block.
        // It reads as the hole's zeros already, because the monitor's
        // page pool zeroes every page it takes back.
        block = allocBlock();
        if (!block)
            return kErrNoSpc;
        node->blocks[blk] = block;
    }

    // Readahead merge: extend the span over physically-contiguous,
    // already-materialised successor blocks (sequential writers get
    // contiguous blocks from the ALLOC bump path) so one borrow — and
    // ONE staged window range, one epoch cycle, one retag — serves up
    // to kReadAheadBlocks blocks instead of one per block.
    const uint64_t want = std::min<uint64_t>(
        max_len ? max_len : node->size - off, node->size - off);
    std::size_t run = 1;
    while (run < kReadAheadBlocks &&
           static_cast<uint64_t>(run) * kBlockSize - bo < want &&
           blk + run < node->blocks.size() &&
           node->blocks[blk + run] == block + run * kBlockSize)
        ++run;

    // One persistent RAMFS-owned window per borrowing peer; its ACL
    // opens once and stays open (lazy revocation, §5.6) while staged
    // block runs come and go with the borrows. Each staged run is
    // prestaged for reading, so the peer's reads of borrowed data
    // never fault at all. The peer comes from the caller: one that
    // is no cubicle (above) or that the monitor will not open a
    // window to is an invalid argument.
    auto wit = peerWins_.find(peer);
    if (wit == peerWins_.end()) {
        GrantWindow win(*sys(), PeerSet{peer});
        try {
            win.open(win.peers());
        } catch (const core::WindowError &) {
            return kErrInval;
        }
        wit = peerWins_.emplace(peer, std::move(win)).first;
    }
    StagedRun &sr = stagedRefs_[{peer, block}];
    if (sr.refs == 0) {
        wit->second.stage(block, run * kBlockSize);
        wit->second.prestage(wit->second.peers(), Prestage::kRead);
        sr.blocks = run;
    } else {
        // A same-start borrow reuses the staged range; the span must
        // not outrun what is actually granted.
        run = std::min(run, sr.blocks);
    }
    ++sr.refs;

    const uint64_t token = nextToken_++;
    borrows_[token] = Borrow{id, peer, block};
    ++node->pins;

    VfsSpan span;
    span.ptr = block + bo;
    span.len = std::min<uint64_t>(run * kBlockSize - bo,
                                  node->size - off);
    if (max_len)
        span.len = std::min<uint64_t>(span.len, max_len);
    span.token = token;
    *out = span;
    return kOk;
}

int
RamfsComponent::doRelease(NodeId id, uint64_t token)
{
    auto it = borrows_.find(token);
    if (it == borrows_.end() || it->second.node != id)
        return kErrInval;
    const Borrow b = it->second;
    borrows_.erase(it);

    auto rit = stagedRefs_.find({b.peer, b.block});
    if (rit != stagedRefs_.end() && --rit->second.refs == 0) {
        stagedRefs_.erase(rit);
        auto wit = peerWins_.find(b.peer);
        if (wit != peerWins_.end())
            wit->second.unstage(b.block);
    }
    Node *node = nodeAt(id);
    if (node && node->pins > 0)
        --node->pins;
    return kOk;
}

void
RamfsComponent::registerExports(core::Exporter &exp)
{
    exp.fn<NodeId(const char *)>(
        "ramfs_lookup", [this](const char *p) { return doLookup(p); });
    exp.fn<NodeId(const char *, uint32_t)>(
        "ramfs_create", [this](const char *p, uint32_t m) {
            NodeId id;
            return doCreate(p, m, &id) == kOk ? id : kNoNode;
        });
    exp.fn<int(const char *)>(
        "ramfs_remove", [this](const char *p) { return doRemove(p); });
    exp.fn<int(const char *)>(
        "ramfs_mkdir", [this](const char *p) { return doMkdir(p); });
    exp.fn<int64_t(NodeId, uint64_t, void *, std::size_t)>(
        "ramfs_read",
        [this](NodeId id, uint64_t off, void *buf, std::size_t n) {
            return doRead(id, off, buf, n);
        });
    exp.fn<int64_t(NodeId, uint64_t, const void *, std::size_t)>(
        "ramfs_write",
        [this](NodeId id, uint64_t off, const void *buf, std::size_t n) {
            return doWrite(id, off, buf, n);
        });
    exp.fn<int(NodeId, uint64_t)>(
        "ramfs_truncate",
        [this](NodeId id, uint64_t size) { return doTruncate(id, size); });
    exp.fn<int(NodeId, VfsStat *)>(
        "ramfs_getattr",
        [this](NodeId id, VfsStat *st) { return doGetattr(id, st); });
    exp.fn<int(const char *, uint64_t, VfsDirent *)>(
        "ramfs_readdir",
        [this](const char *p, uint64_t idx, VfsDirent *out) {
            return doReaddir(p, idx, out);
        });
    exp.fn<int(NodeId)>("ramfs_sync", [](NodeId) { return kOk; });
    exp.fn<int(NodeId, uint64_t, core::Cid, std::size_t, VfsSpan *)>(
        "ramfs_borrow",
        [this](NodeId id, uint64_t off, core::Cid peer,
               std::size_t max_len, VfsSpan *out) {
            return doBorrow(id, off, peer, max_len, out);
        });
    exp.fn<int(NodeId, uint64_t)>(
        "ramfs_release", [this](NodeId id, uint64_t token) {
            return doRelease(id, token);
        });
}

} // namespace cubicleos::libos
