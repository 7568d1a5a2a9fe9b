/**
 * @file
 * A compact TCP/IPv4 stack (LWIP stand-in).
 *
 * Implements enough of TCP for the paper's NGINX experiment: the
 * three-way handshake, cumulative ACKs, receiver flow control, MSS
 * segmentation, FIN teardown, a coarse retransmission timer and a
 * persist timer. Internet checksums are computed and verified on every
 * segment.
 *
 * Like lwIP, the stack spends few frames per exchange. The ACK of
 * in-order data, and the window update a recv() makes, wait for the
 * connection's next tick() unless a data or FIN segment carries them
 * first; a SYN-ACK, a FIN, a retransmitted SYN and out-of-order or
 * duplicate data are acknowledged at once. After close(), the segment
 * that drains the send queue carries the FIN. The sender never cuts a
 * segment short to fit the usable window unless that window is at
 * least half the largest the peer advertised (RFC 1122 §4.2.3.4); the
 * persist timer lets one cut segment through when the window holds
 * data back with nothing in flight. There is no TIME_WAIT: the ACK of
 * the FIN that closes a connection is sent like an owed RST.
 *
 * Each connection's receive buffer is a fixed ring of
 * TcpConfig::rcvBuf bytes (the 64 kB socket buffer whose exhaustion
 * produces the latency knee in Fig. 7); its free space is the window
 * the connection advertises. Payload moves in blocks: into and out of
 * the ring, and from the send queue straight into the outgoing frame.
 *
 * The class is transport-only and driver-agnostic: input() consumes
 * raw IP packets, pollOutput() emits them. It is used both inside the
 * LWIP cubicle (LwipComponent) and stand-alone by the benchmark
 * client, exercising identical protocol code on both ends of the wire.
 */

#ifndef CUBICLEOS_LIBOS_TCPIP_H_
#define CUBICLEOS_LIBOS_TCPIP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "core/errors.h"

namespace cubicleos::libos {

/** Errors returned by the socket API (negative). */
enum NetErr : int {
    kNetOk = 0,
    kNetAgain = -11,    ///< would block
    kNetBadFd = -9,
    kNetInUse = -98,    ///< port already bound
    kNetRefused = -111, ///< no listener at destination
    kNetNotConn = -107,
    kNetBufFull = -105, ///< send buffer exhausted

    /**
     * The network-stack cubicle is destroyed or draining (DESIGN.md
     * §15): the call never reached the stack. Connection state is
     * gone; callers drop the connection and may retry after a
     * restart. Defined as core::kPeerFaultVerdict, the value
     * core::catchPeerFault returns.
     */
    kNetPeerFault = core::kPeerFaultVerdict,
};

/** Configuration of one stack instance. */
struct TcpConfig {
    uint32_t ipAddr = 0x0A000001; ///< 10.0.0.1
    std::size_t sndBuf = 64 * 1024;
    std::size_t rcvBuf = 64 * 1024;
    uint16_t mss = 1460;
    uint64_t rtoNs = 200'000'000; ///< retransmission timeout
};

/** Transport statistics. */
struct TcpStats {
    uint64_t segsIn = 0;
    uint64_t segsOut = 0;
    uint64_t bytesIn = 0;
    uint64_t bytesOut = 0;
    uint64_t retransmits = 0;
    uint64_t checksumDrops = 0;
    /** Payload copies on the send path (app buf → queue, queue → frame). */
    uint64_t payloadCopies = 0;
    uint64_t payloadCopyBytes = 0;
    /** Segments whose payload was taken straight from a borrowed span. */
    uint64_t zcSegsOut = 0;
    uint64_t zcBytesOut = 0;
};

/**
 * One TCP/IP stack endpoint with a BSD-flavoured non-blocking API.
 */
class TcpIpStack {
  public:
    explicit TcpIpStack(const TcpConfig &cfg = {});
    ~TcpIpStack();

    TcpIpStack(const TcpIpStack &) = delete;
    TcpIpStack &operator=(const TcpIpStack &) = delete;

    // --- socket API (non-blocking) ---
    int socket();
    int bind(int fd, uint16_t port);
    int listen(int fd, int backlog);
    /** @return new connection fd, or kNetAgain. */
    int accept(int fd);
    int connect(int fd, uint32_t dst_ip, uint16_t dst_port);
    /** @return bytes queued (may be < n), or a NetErr. */
    int64_t send(int fd, const void *buf, std::size_t n);
    /**
     * Queues an external span for zero-copy transmission: the bytes
     * are not copied into the send queue — segments are built straight
     * from @p span (the scatter-gather DMA analogue). All-or-nothing:
     * @return n once the whole span is queued, kNetAgain when the send
     * buffer cannot take it yet, or another NetErr.
     *
     * The caller must keep @p span valid (and, across cubicles,
     * granted) until zeroCopyDone() accounts for it: retransmissions
     * re-read the span until every byte is acknowledged.
     */
    int64_t sendZero(int fd, const void *span, std::size_t n);
    /**
     * Number of zero-copy spans fully acknowledged since the last
     * call (consumed on read). Spans complete in FIFO submission
     * order, so the caller can release its oldest outstanding borrows.
     */
    int64_t zeroCopyDone(int fd);
    /** @return bytes read, 0 on orderly close, or kNetAgain. */
    int64_t recv(int fd, void *buf, std::size_t n);
    int close(int fd);
    /** True once the three-way handshake completed. */
    bool isEstablished(int fd) const;
    /** True when all sent data has been acknowledged. */
    bool sendDrained(int fd) const;

    // --- driver interface ---
    /**
     * Delivers one raw IP packet from the wire. A packet whose header
     * lengths do not fit its size, or that carries IP options, is
     * dropped before any length it claims is used.
     */
    void input(const uint8_t *pkt, std::size_t len);
    /**
     * Emits every currently sendable segment through @p tx. The frame
     * passed to @p tx is valid only during that call: the stack builds
     * the next segment in the same buffer.
     */
    void pollOutput(
        const std::function<void(const uint8_t *, std::size_t)> &tx);
    /**
     * Advances timers: a delayed ACK falls due, and the retransmission
     * and persist timers fire.
     */
    void tick(uint64_t now_ns);

    const TcpStats &stats() const { return stats_; }
    const TcpConfig &config() const { return cfg_; }

    /**
     * Installs a hook invoked with the byte count of every payload
     * copy the stack performs (LWIP wires it to the system-wide
     * data-copy counters; the stand-alone bench client leaves it
     * unset).
     */
    void setCopyHook(std::function<void(std::size_t)> hook)
    {
        copyHook_ = std::move(hook);
    }

  private:
    struct Conn;
    struct Impl;

    Conn *conn(int fd) const;
    void countCopy(std::size_t bytes);

    std::unique_ptr<Impl> impl_;
    TcpConfig cfg_;
    TcpStats stats_;
    std::function<void(std::size_t)> copyHook_;
};

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_TCPIP_H_
