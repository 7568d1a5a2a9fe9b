#include "libos/tcpip.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "libos/inet_checksum.h"

namespace cubicleos::libos {

namespace {

// --- wire formats -----------------------------------------------------

struct IpHeader {
    uint8_t verIhl;
    uint8_t tos;
    uint16_t totalLen;
    uint16_t id;
    uint16_t fragOff;
    uint8_t ttl;
    uint8_t proto;
    uint16_t checksum;
    uint32_t src;
    uint32_t dst;
} __attribute__((packed));

struct TcpHeader {
    uint16_t srcPort;
    uint16_t dstPort;
    uint32_t seq;
    uint32_t ack;
    uint8_t dataOff; ///< upper nibble: header words
    uint8_t flags;
    uint16_t window;
    uint16_t checksum;
    uint16_t urgent;
} __attribute__((packed));

enum TcpFlags : uint8_t {
    kFin = 0x01,
    kSyn = 0x02,
    kRst = 0x04,
    kPsh = 0x08,
    kAck = 0x10,
};

constexpr std::size_t kIpHdr = sizeof(IpHeader);
constexpr std::size_t kTcpHdr = sizeof(TcpHeader);

uint16_t
hton16(uint16_t v)
{
    return static_cast<uint16_t>((v << 8) | (v >> 8));
}
uint32_t
hton32(uint32_t v)
{
    return (v << 24) | ((v & 0xFF00) << 8) | ((v >> 8) & 0xFF00) |
           (v >> 24);
}

/** TCP pseudo-header partial sum. */
uint64_t
pseudoSum(uint32_t src, uint32_t dst, std::size_t tcp_len)
{
    uint64_t sum = 0;
    sum += (src >> 16) + (src & 0xFFFF);
    sum += (dst >> 16) + (dst & 0xFFFF);
    sum += 6; // protocol TCP
    sum += static_cast<uint64_t>(tcp_len);
    return sum;
}

/** Signed sequence-number comparison (RFC 793 arithmetic). */
bool
seqLt(uint32_t a, uint32_t b)
{
    return static_cast<int32_t>(a - b) < 0;
}

} // namespace

// --- connection state ---------------------------------------------------

/**
 * One send-queue element: either bytes the stack owns (copied from the
 * caller at send() time) or a reference to an external zero-copy span
 * whose storage the caller keeps alive — and granted — until the last
 * byte is acknowledged (retransmissions re-read it in place).
 */
struct SendChunk {
    std::vector<uint8_t> owned; ///< empty for zero-copy chunks
    const uint8_t *ext = nullptr;
    std::size_t len = 0;    ///< logical chunk length
    std::size_t popped = 0; ///< acknowledged bytes consumed from front

    bool zc() const { return ext != nullptr; }
    const uint8_t *bytes() const { return zc() ? ext : owned.data(); }
    std::size_t remaining() const { return len - popped; }
};

/**
 * The receive buffer: a fixed ring of rcvBuf bytes, allocated without
 * zero-filling when the first in-order payload arrives. Bytes move in
 * and out with at most two memcpy calls each, split at the wrap point.
 */
class RecvRing {
  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Appends @p n bytes; the caller checked n <= cap - size(). */
    void push(const uint8_t *src, std::size_t n, std::size_t cap)
    {
        if (!buf_) {
            buf_ = std::make_unique_for_overwrite<uint8_t[]>(cap);
            cap_ = cap;
        }
        const std::size_t tail =
            head_ < cap_ - size_ ? head_ + size_ : head_ + size_ - cap_;
        const std::size_t first = std::min(n, cap_ - tail);
        std::memcpy(buf_.get() + tail, src, first);
        std::memcpy(buf_.get(), src + first, n - first);
        size_ += n;
    }

    /** Moves min(@p n, size()) bytes out to @p dst; @return the count. */
    std::size_t pop(uint8_t *dst, std::size_t n)
    {
        const std::size_t take = std::min(n, size_);
        const std::size_t first = std::min(take, cap_ - head_);
        std::memcpy(dst, buf_.get() + head_, first);
        std::memcpy(dst + first, buf_.get(), take - first);
        head_ = head_ < cap_ - take ? head_ + take : head_ + take - cap_;
        size_ -= take;
        return take;
    }

  private:
    std::unique_ptr<uint8_t[]> buf_;
    std::size_t cap_ = 0;
    std::size_t head_ = 0; ///< offset of the oldest unread byte
    std::size_t size_ = 0;
};

struct TcpIpStack::Conn {
    enum State {
        kClosed,
        kListen,
        kSynSent,
        kSynRcvd,
        kEstablished,
        kFinWait1,
        kFinWait2,
        kCloseWait,
        kLastAck,
        kClosing,
    };

    State state = kClosed;
    bool used = false;
    bool appClosed = false; ///< app called close(); free slot at kClosed
    bool refused = false;   ///< connect() got RST

    uint16_t localPort = 0;
    uint32_t remoteIp = 0;
    uint16_t remotePort = 0;

    // Send side: the chunk queue holds [sndUna, sndUna + sndQBytes).
    uint32_t sndUna = 0;
    uint32_t sndNxt = 0;
    std::deque<SendChunk> sndQ;
    std::size_t sndQBytes = 0; ///< total remaining bytes across chunks
    uint64_t zcCompleted = 0;  ///< fully-acked spans not yet reported
    bool synOut = false; ///< SYN/SYN-ACK emitted (awaiting ack)
    bool finQueued = false;
    bool finSent = false;
    uint32_t finSeq = 0;
    uint32_t peerWnd = 65535;
    uint32_t maxPeerWnd = 0; ///< largest window the peer advertised
    /**
     * The persist timer fired: the next data segment may be cut to the
     * usable window, one byte if that window is zero.
     */
    bool probe = false;

    // Receive side.
    uint32_t rcvNxt = 0;
    RecvRing rcvQ;
    bool finRcvd = false;
    bool ackPending = false; ///< a bare ACK is owed now
    bool ackDelayed = false; ///< a bare ACK is owed at the next tick()

    // Listener state.
    int backlog = 0;
    std::deque<int> acceptQ;

    uint64_t lastSendNs = 0;

    /** Sequence space in flight (data + unacked SYN/FIN). */
    std::size_t inflight() const { return sndNxt - sndUna; }

    /** Payload bytes in flight (excludes the FIN's sequence slot). */
    std::size_t dataInflight() const
    {
        std::size_t fl = sndNxt - sndUna;
        if (finSent && !seqLt(finSeq, sndUna))
            fl -= 1; // FIN emitted but not yet acknowledged
        return fl;
    }

    std::size_t unsent() const { return sndQBytes - dataInflight(); }

    /**
     * Payload length of the next data segment: a full one (up to
     * @p mss, or all that is unsent) when the usable window takes it.
     * Sender silly-window avoidance (RFC 1122 §4.2.3.4): a segment is
     * cut to fit a smaller window only when that window is at least
     * half the largest the peer advertised, or when the persist timer
     * fired. @return 0 when the window holds the segment back.
     */
    std::size_t nextSegmentLen(std::size_t mss) const
    {
        const std::size_t want = std::min(mss, unsent());
        const std::size_t usable =
            peerWnd > inflight() ? peerWnd - inflight() : 0;
        if (want <= usable)
            return want;
        if (probe || 2 * usable >= maxPeerWnd)
            return usable;
        return 0;
    }

    /** The window to advertise: the receive ring's free space. */
    uint16_t window(std::size_t rcv_buf) const
    {
        return static_cast<uint16_t>(
            std::min<std::size_t>(rcv_buf - rcvQ.size(), 65535));
    }

    /** Records the window the peer advertised in its latest segment. */
    void notePeerWindow(uint16_t wnd)
    {
        peerWnd = wnd;
        maxPeerWnd = std::max<uint32_t>(maxPeerWnd, wnd);
    }

    /**
     * Locates the byte at logical offset @p off into the un-popped
     * queue contents. @return the chunk and the index within its
     * bytes() (popped bytes included), or {nullptr, 0} past the end.
     */
    std::pair<const SendChunk *, std::size_t> chunkAt(std::size_t off) const
    {
        for (const SendChunk &ck : sndQ) {
            if (off < ck.remaining())
                return {&ck, ck.popped + off};
            off -= ck.remaining();
        }
        return {nullptr, 0};
    }
};

struct TcpIpStack::Impl {
    std::vector<std::unique_ptr<Conn>> conns;
    uint16_t nextEphemeral = 49152;
    uint32_t nextIss = 1000;
    uint64_t nowNs = 0;
    /**
     * Segments owed to peers that have no live connection here: a RST
     * to a segment nothing matched, and the ACK of a FIN that closed
     * its connection (there is no TIME_WAIT to send it from).
     */
    std::vector<std::vector<uint8_t>> owed;
    /**
     * The frame pollOutput builds every connection segment in, payload
     * first; tx consumes it before the next segment overwrites it.
     */
    std::vector<uint8_t> frame;
};

TcpIpStack::TcpIpStack(const TcpConfig &cfg)
    : impl_(std::make_unique<Impl>()), cfg_(cfg)
{
    impl_->frame.resize(kIpHdr + kTcpHdr + cfg_.mss);
}

TcpIpStack::~TcpIpStack() = default;

// --- fd helpers -----------------------------------------------------

int
TcpIpStack::socket()
{
    for (std::size_t fd = 0; fd < impl_->conns.size(); ++fd) {
        if (!impl_->conns[fd]->used) {
            *impl_->conns[fd] = Conn{};
            impl_->conns[fd]->used = true;
            return static_cast<int>(fd);
        }
    }
    impl_->conns.push_back(std::make_unique<Conn>());
    impl_->conns.back()->used = true;
    return static_cast<int>(impl_->conns.size() - 1);
}

TcpIpStack::Conn *
TcpIpStack::conn(int fd) const
{
    auto &conns = impl_->conns;
    if (fd < 0 || static_cast<std::size_t>(fd) >= conns.size() ||
        !conns[static_cast<std::size_t>(fd)]->used) {
        return nullptr;
    }
    return conns[static_cast<std::size_t>(fd)].get();
}

int
TcpIpStack::bind(int fd, uint16_t port)
{
    Conn *c = conn(fd);
    if (!c)
        return kNetBadFd;
    for (const auto &other : impl_->conns) {
        if (other->used && other.get() != c &&
            other->state == Conn::kListen && other->localPort == port) {
            return kNetInUse;
        }
    }
    c->localPort = port;
    return kNetOk;
}

int
TcpIpStack::listen(int fd, int backlog)
{
    Conn *c = conn(fd);
    if (!c || c->localPort == 0)
        return kNetBadFd;
    c->state = Conn::kListen;
    c->backlog = backlog > 0 ? backlog : 8;
    return kNetOk;
}

int
TcpIpStack::accept(int fd)
{
    Conn *c = conn(fd);
    if (!c || c->state != Conn::kListen)
        return kNetBadFd;
    // Hand out only fully established children.
    while (!c->acceptQ.empty()) {
        const int child = c->acceptQ.front();
        Conn *cc = conn(child);
        if (cc && cc->state == Conn::kEstablished) {
            c->acceptQ.pop_front();
            return child;
        }
        if (!cc || cc->state == Conn::kClosed) {
            c->acceptQ.pop_front();
            continue;
        }
        break; // head still in handshake
    }
    return kNetAgain;
}

int
TcpIpStack::connect(int fd, uint32_t dst_ip, uint16_t dst_port)
{
    Conn *c = conn(fd);
    if (!c)
        return kNetBadFd;
    if (c->state != Conn::kClosed)
        return kNetInUse;
    if (c->localPort == 0)
        c->localPort = impl_->nextEphemeral++;
    c->remoteIp = dst_ip;
    c->remotePort = dst_port;
    c->sndUna = c->sndNxt = impl_->nextIss;
    impl_->nextIss += 0x10000;
    c->state = Conn::kSynSent;
    c->synOut = false;
    return kNetOk;
}

int64_t
TcpIpStack::send(int fd, const void *buf, std::size_t n)
{
    Conn *c = conn(fd);
    if (!c)
        return kNetBadFd;
    if (c->state != Conn::kEstablished && c->state != Conn::kCloseWait)
        return kNetNotConn;
    if (c->finQueued)
        return kNetNotConn;
    const std::size_t room =
        cfg_.sndBuf > c->sndQBytes ? cfg_.sndBuf - c->sndQBytes : 0;
    const std::size_t take = std::min(n, room);
    if (take == 0)
        return kNetAgain;
    const auto *bytes = static_cast<const uint8_t *>(buf);
    SendChunk ck;
    ck.owned.assign(bytes, bytes + take);
    ck.len = take;
    c->sndQ.push_back(std::move(ck));
    c->sndQBytes += take;
    countCopy(take); // app buffer → send queue
    return static_cast<int64_t>(take);
}

int64_t
TcpIpStack::sendZero(int fd, const void *span, std::size_t n)
{
    Conn *c = conn(fd);
    if (!c)
        return kNetBadFd;
    if (c->state != Conn::kEstablished && c->state != Conn::kCloseWait)
        return kNetNotConn;
    if (c->finQueued)
        return kNetNotConn;
    if (n == 0)
        return 0;
    // All-or-nothing: a partially queued span would leave the caller
    // unable to tell which suffix to resubmit without copying.
    const std::size_t room =
        cfg_.sndBuf > c->sndQBytes ? cfg_.sndBuf - c->sndQBytes : 0;
    if (room < n)
        return kNetAgain;
    SendChunk ck;
    ck.ext = static_cast<const uint8_t *>(span);
    ck.len = n;
    c->sndQ.push_back(std::move(ck));
    c->sndQBytes += n;
    return static_cast<int64_t>(n);
}

int64_t
TcpIpStack::zeroCopyDone(int fd)
{
    Conn *c = conn(fd);
    if (!c)
        return kNetBadFd;
    const int64_t done = static_cast<int64_t>(c->zcCompleted);
    c->zcCompleted = 0;
    return done;
}

void
TcpIpStack::countCopy(std::size_t bytes)
{
    ++stats_.payloadCopies;
    stats_.payloadCopyBytes += bytes;
    if (copyHook_)
        copyHook_(bytes);
}

int64_t
TcpIpStack::recv(int fd, void *buf, std::size_t n)
{
    Conn *c = conn(fd);
    if (!c)
        return kNetBadFd;
    if (c->refused)
        return kNetRefused;
    if (c->rcvQ.empty()) {
        if (c->finRcvd)
            return 0; // orderly close
        if (c->state == Conn::kClosed)
            return kNetNotConn;
        return kNetAgain;
    }
    const std::size_t take = c->rcvQ.pop(static_cast<uint8_t *>(buf), n);
    // The window opened: tell the peer by the next tick, unless a data
    // segment carries the update first.
    c->ackDelayed = true;
    return static_cast<int64_t>(take);
}

int
TcpIpStack::close(int fd)
{
    Conn *c = conn(fd);
    if (!c)
        return kNetBadFd;
    c->appClosed = true;
    switch (c->state) {
      case Conn::kClosed:
      case Conn::kListen:
      case Conn::kSynSent:
        c->used = false;
        c->state = Conn::kClosed;
        break;
      case Conn::kSynRcvd:
      case Conn::kEstablished:
        c->finQueued = true;
        c->state = Conn::kFinWait1;
        break;
      case Conn::kCloseWait:
        c->finQueued = true;
        c->state = Conn::kLastAck;
        break;
      default:
        break;
    }
    return kNetOk;
}

bool
TcpIpStack::isEstablished(int fd) const
{
    const Conn *c = conn(fd);
    return c && (c->state == Conn::kEstablished ||
                 c->state == Conn::kCloseWait || !c->rcvQ.empty());
}

bool
TcpIpStack::sendDrained(int fd) const
{
    const Conn *c = conn(fd);
    return c && c->sndQBytes == 0;
}

// --- segment emission -----------------------------------------------

namespace {

/**
 * Writes the IP and TCP headers of a segment into @p pkt, whose @p len
 * payload bytes already sit at pkt + kIpHdr + kTcpHdr, and checksums
 * it. @return the frame length.
 */
std::size_t
buildSegment(uint8_t *pkt, uint32_t src_ip, uint32_t dst_ip,
             uint16_t src_port, uint16_t dst_port, uint32_t seq,
             uint32_t ack, uint8_t flags, uint16_t window, std::size_t len)
{
    const std::size_t total = kIpHdr + kTcpHdr + len;
    auto *ip = reinterpret_cast<IpHeader *>(pkt);
    ip->verIhl = 0x45;
    ip->tos = 0;
    ip->totalLen = hton16(static_cast<uint16_t>(total));
    ip->id = 0;
    ip->fragOff = 0;
    ip->ttl = 64;
    ip->proto = 6;
    ip->checksum = 0;
    ip->src = hton32(src_ip);
    ip->dst = hton32(dst_ip);
    ip->checksum = hton16(inetChecksum(pkt, kIpHdr));

    auto *tcp = reinterpret_cast<TcpHeader *>(pkt + kIpHdr);
    tcp->srcPort = hton16(src_port);
    tcp->dstPort = hton16(dst_port);
    tcp->seq = hton32(seq);
    tcp->ack = hton32(ack);
    tcp->dataOff = 5 << 4;
    tcp->flags = flags;
    tcp->window = hton16(window);
    tcp->checksum = 0;
    tcp->urgent = 0;
    tcp->checksum = hton16(
        inetChecksum(pkt + kIpHdr, kTcpHdr + len,
                     pseudoSum(src_ip, dst_ip, kTcpHdr + len)));
    return total;
}

} // namespace

void
TcpIpStack::pollOutput(
    const std::function<void(const uint8_t *, std::size_t)> &tx)
{
    // Owed segments first.
    for (auto &seg : impl_->owed) {
        ++stats_.segsOut;
        tx(seg.data(), seg.size());
    }
    impl_->owed.clear();

    uint8_t *const frame = impl_->frame.data();
    uint8_t *const payload = frame + kIpHdr + kTcpHdr;
    for (std::size_t fd = 0; fd < impl_->conns.size(); ++fd) {
        Conn &c = *impl_->conns[fd];
        if (!c.used || c.state == Conn::kClosed ||
            c.state == Conn::kListen) {
            continue;
        }
        const uint16_t wnd = c.window(cfg_.rcvBuf);
        // Sends a segment whose @p len payload bytes are already in
        // the frame. Every segment but the SYN acknowledges, so it
        // settles any bare ACK the connection owes.
        auto emit = [&](uint32_t seq, uint8_t flags, std::size_t len) {
            const std::size_t n =
                buildSegment(frame, cfg_.ipAddr, c.remoteIp, c.localPort,
                             c.remotePort, seq, c.rcvNxt, flags, wnd, len);
            ++stats_.segsOut;
            stats_.bytesOut += len;
            c.lastSendNs = impl_->nowNs;
            c.ackPending = c.ackDelayed = false;
            tx(frame, n);
        };

        // Handshake segments.
        if (c.state == Conn::kSynSent && !c.synOut) {
            emit(c.sndNxt, kSyn, 0);
            c.sndNxt = c.sndUna + 1; // SYN consumes one sequence number
            c.synOut = true;
            continue;
        }
        if (c.state == Conn::kSynRcvd && !c.synOut) {
            emit(c.sndUna, kSyn | kAck, 0);
            c.sndNxt = c.sndUna + 1;
            c.synOut = true;
            continue;
        }
        if (c.state == Conn::kSynSent || c.state == Conn::kSynRcvd)
            continue; // awaiting handshake completion

        // Data segments, limited by the peer's advertised window. The
        // segment that drains the queue after close() carries the FIN.
        while (!c.finSent) {
            std::size_t len = c.nextSegmentLen(cfg_.mss);
            if (len == 0)
                break;
            c.probe = false;
            const std::size_t off = c.dataInflight();
            const auto [ck, idx] = c.chunkAt(off);
            assert(ck != nullptr);
            if (ck->zc()) {
                // Zero-copy chunk: the segment is built straight from
                // the borrowed span (the scatter-gather DMA analogue —
                // this memcpy is what a NIC gather descriptor would
                // do, not a payload copy). Truncate at the chunk
                // boundary so a span never shares a segment with
                // foreign bytes.
                len = std::min(len, ck->len - idx);
                std::memcpy(payload, ck->bytes() + idx, len);
                ++stats_.zcSegsOut;
                stats_.zcBytesOut += len;
            } else {
                // Gather across consecutive owned chunks straight into
                // the frame, preserving MSS-sized segmentation; stop
                // at a zero-copy chunk boundary.
                std::size_t got = 0;
                while (got < len) {
                    const auto [gck, gidx] = c.chunkAt(off + got);
                    if (!gck || gck->zc())
                        break;
                    const std::size_t take =
                        std::min(len - got, gck->len - gidx);
                    std::memcpy(payload + got, gck->bytes() + gidx, take);
                    got += take;
                }
                len = got;
                countCopy(len); // send queue → frame
            }
            const bool fin = c.finQueued && len == c.unsent();
            emit(c.sndNxt, kAck | kPsh | (fin ? kFin : 0), len);
            c.sndNxt += static_cast<uint32_t>(len);
            if (fin) {
                c.finSeq = c.sndNxt;
                c.sndNxt += 1;
                c.finSent = true;
            }
        }

        // A FIN with no data left to carry it.
        if (c.finQueued && !c.finSent && c.unsent() == 0) {
            c.finSeq = c.sndNxt;
            emit(c.sndNxt, kFin | kAck, 0);
            c.sndNxt += 1;
            c.finSent = true;
            continue;
        }

        if (c.ackPending)
            emit(c.sndNxt, kAck, 0);
    }
}

// --- input processing -------------------------------------------------

void
TcpIpStack::input(const uint8_t *pkt, std::size_t len)
{
    if (len < kIpHdr + kTcpHdr)
        return;
    const auto *ip = reinterpret_cast<const IpHeader *>(pkt);
    // IPv4 with a 5-word header: the stack neither emits nor parses
    // IP options, so the TCP header must start at kIpHdr.
    if (ip->verIhl != 0x45 || ip->proto != 6)
        return;
    if (hton32(ip->dst) != cfg_.ipAddr)
        return; // not ours
    if (inetChecksum(pkt, kIpHdr) != 0)
        return;

    const uint32_t src_ip = hton32(ip->src);
    // Check every length the packet claims before using it: the
    // lengths below are unsigned and would wrap.
    const std::size_t total = hton16(ip->totalLen);
    if (total > len || total < kIpHdr + kTcpHdr)
        return;
    const auto *tcp = reinterpret_cast<const TcpHeader *>(pkt + kIpHdr);
    const std::size_t tcp_len = total - kIpHdr;
    const std::size_t hdr = (tcp->dataOff >> 4) * 4u;
    if (hdr < kTcpHdr || hdr > tcp_len)
        return;
    if (inetChecksum(pkt + kIpHdr, tcp_len,
                     pseudoSum(src_ip, cfg_.ipAddr, tcp_len)) != 0) {
        ++stats_.checksumDrops;
        return;
    }

    const uint16_t src_port = hton16(tcp->srcPort);
    const uint16_t dst_port = hton16(tcp->dstPort);
    const uint32_t seq = hton32(tcp->seq);
    const uint32_t ack = hton32(tcp->ack);
    const uint8_t flags = tcp->flags;
    const uint16_t wnd = hton16(tcp->window);
    const uint8_t *payload = pkt + kIpHdr + hdr;
    const std::size_t plen = tcp_len - hdr;

    ++stats_.segsIn;

    // Demux: exact four-tuple first, then listener.
    Conn *c = nullptr;
    Conn *listener = nullptr;
    for (auto &cp : impl_->conns) {
        if (!cp->used)
            continue;
        if (cp->state == Conn::kListen && cp->localPort == dst_port)
            listener = cp.get();
        else if (cp->localPort == dst_port && cp->remoteIp == src_ip &&
                 cp->remotePort == src_port && cp->state != Conn::kClosed)
            c = cp.get();
    }

    if (!c && listener && (flags & kSyn) && !(flags & kAck)) {
        // Passive open.
        if (static_cast<int>(listener->acceptQ.size()) >=
            listener->backlog) {
            return; // silently drop; peer will retransmit
        }
        const int child_fd = socket();
        Conn &cc = *impl_->conns[static_cast<std::size_t>(child_fd)];
        cc.localPort = dst_port;
        cc.remoteIp = src_ip;
        cc.remotePort = src_port;
        cc.rcvNxt = seq + 1;
        cc.sndUna = cc.sndNxt = impl_->nextIss;
        impl_->nextIss += 0x10000;
        cc.notePeerWindow(wnd);
        cc.state = Conn::kSynRcvd;
        listener->acceptQ.push_back(child_fd);
        return;
    }
    if (!c) {
        if (!(flags & kRst)) {
            // No matching endpoint: owe the peer a RST.
            std::vector<uint8_t> rst(kIpHdr + kTcpHdr);
            buildSegment(rst.data(), cfg_.ipAddr, src_ip, dst_port,
                         src_port, ack, seq + 1, kRst | kAck, 0, 0);
            impl_->owed.push_back(std::move(rst));
        }
        return;
    }

    if (flags & kRst) {
        c->refused = c->state == Conn::kSynSent;
        c->state = Conn::kClosed;
        if (c->appClosed)
            c->used = false;
        return;
    }

    c->notePeerWindow(wnd);

    // Handshake progress.
    if (c->state == Conn::kSynSent && (flags & kSyn) && (flags & kAck)) {
        if (ack == c->sndNxt) {
            c->sndUna = ack;
            c->rcvNxt = seq + 1;
            c->state = Conn::kEstablished;
            c->ackPending = true;
        }
        return;
    }
    if (c->state == Conn::kSynRcvd && (flags & kAck) &&
        ack == c->sndNxt) {
        c->sndUna = ack;
        c->state = Conn::kEstablished;
        // fall through: the ACK may carry data
    }
    // A SYN on a synchronised connection is the peer retransmitting its
    // handshake: our ACK of it was lost, so acknowledge again.
    if ((flags & kSyn) && c->state != Conn::kSynSent &&
        c->state != Conn::kSynRcvd) {
        c->ackPending = true;
    }

    // ACK processing.
    if (flags & kAck) {
        uint32_t acked_upper = c->sndNxt;
        if (seqLt(c->sndUna, ack) && !seqLt(acked_upper, ack - 0)) {
            uint32_t advance = ack - c->sndUna;
            // FIN consumes a sequence number but is not in sndQ.
            uint32_t data_advance = advance;
            if (c->finSent && !seqLt(ack, c->finSeq + 1))
                data_advance = advance - 1;
            std::size_t to_pop = data_advance;
            while (to_pop > 0 && !c->sndQ.empty()) {
                SendChunk &ck = c->sndQ.front();
                const std::size_t take =
                    std::min(to_pop, ck.remaining());
                ck.popped += take;
                c->sndQBytes -= take;
                to_pop -= take;
                if (ck.remaining() == 0) {
                    // A fully-acked span completes, in FIFO order —
                    // the borrower may now release it.
                    if (ck.zc())
                        ++c->zcCompleted;
                    c->sndQ.pop_front();
                }
            }
            c->sndUna = ack;
            // Our FIN acknowledged?
            if (c->finSent && !seqLt(ack, c->finSeq + 1)) {
                if (c->state == Conn::kFinWait1)
                    c->state = Conn::kFinWait2;
                else if (c->state == Conn::kLastAck ||
                         c->state == Conn::kClosing) {
                    c->state = Conn::kClosed;
                    if (c->appClosed)
                        c->used = false;
                }
            }
        }
    }

    // In-order payload. Its ACK waits for the next tick, so a reply
    // sent meanwhile carries it; anything else is acknowledged at once
    // (a duplicate ACK), telling the peer what did arrive.
    if (plen > 0) {
        if (seq == c->rcvNxt && plen <= cfg_.rcvBuf - c->rcvQ.size()) {
            c->rcvQ.push(payload, plen, cfg_.rcvBuf);
            c->rcvNxt += static_cast<uint32_t>(plen);
            stats_.bytesIn += plen;
            c->ackDelayed = true;
        } else {
            c->ackPending = true;
        }
    }

    // Peer FIN. A duplicate or early one is acknowledged too: the peer
    // retransmits its FIN until it sees our ACK.
    if (flags & kFin) {
        c->ackPending = true;
        const uint32_t fin_seq = seq + static_cast<uint32_t>(plen);
        if (fin_seq == c->rcvNxt && !c->finRcvd) {
            c->rcvNxt += 1;
            c->finRcvd = true;
            switch (c->state) {
              case Conn::kEstablished:
                c->state = Conn::kCloseWait;
                break;
              case Conn::kFinWait1:
                c->state = Conn::kClosing;
                break;
              case Conn::kFinWait2: {
                // With no TIME_WAIT the slot goes now, so the ACK of
                // this FIN is owed like a RST: without it the peer
                // would retransmit its FIN and draw a RST.
                std::vector<uint8_t> last(kIpHdr + kTcpHdr);
                buildSegment(last.data(), cfg_.ipAddr, src_ip, dst_port,
                             src_port, c->sndNxt, c->rcvNxt, kAck,
                             c->window(cfg_.rcvBuf), 0);
                impl_->owed.push_back(std::move(last));
                c->state = Conn::kClosed;
                if (c->appClosed)
                    c->used = false;
                break;
              }
              default:
                break;
            }
        }
    }
}

void
TcpIpStack::tick(uint64_t now_ns)
{
    impl_->nowNs = now_ns;
    for (auto &cp : impl_->conns) {
        Conn &c = *cp;
        if (!c.used)
            continue;
        if (c.ackDelayed) {
            // The delayed ACK is due: no reply carried it this round.
            c.ackDelayed = false;
            c.ackPending = true;
        }
        const bool awaiting =
            c.inflight() > 0 ||
            ((c.state == Conn::kSynSent || c.state == Conn::kSynRcvd) &&
             c.synOut) ||
            (c.finSent && c.state != Conn::kClosed &&
             c.state != Conn::kFinWait2);
        const bool expired =
            now_ns > c.lastSendNs && now_ns - c.lastSendNs > cfg_.rtoNs;
        if (!awaiting && expired && c.unsent() > 0 &&
            c.nextSegmentLen(cfg_.mss) == 0) {
            // Persist timer (RFC 1122 §4.2.2.17 and §4.2.3.4): the
            // window holds data back with nothing in flight, so no
            // other timer runs, and the update that reopened the
            // window may have been lost. Let one segment through, cut
            // to the window (one byte if it is zero); the peer's ACK
            // carries its current window.
            c.peerWnd = std::max<uint32_t>(c.peerWnd, 1);
            c.probe = true;
            c.lastSendNs = now_ns;
        }
        if (awaiting && expired) {
            // Go-back-N: rewind and let pollOutput resend.
            ++stats_.retransmits;
            c.sndNxt = c.sndUna;
            if (c.state == Conn::kSynSent || c.state == Conn::kSynRcvd)
                c.synOut = false;
            if (c.finSent) {
                c.finSent = false;
            }
            c.lastSendNs = now_ns;
        }
    }
}

} // namespace cubicleos::libos
