/**
 * @file
 * CubicleSockApi: application-side socket glue with window management.
 *
 * The socket-API half of the NGINX porting effort (paper: 390 SLOC):
 * brackets every lwip_send/lwip_recv with grant-layer window grants
 * over the application's buffers and reclaims them afterwards,
 * mirroring CubicleFileApi for the file path. The RAII Grant makes the
 * bracket exception-safe: a throwing callee can no longer leak an open
 * window.
 *
 * sendZero/zeroCopyDone expose the zero-copy sendfile path: the spans
 * passed to sendZero are backend-owned blocks already granted to the
 * LWIP cubicle (via vfs_borrow), so no window management happens here
 * — the pointer crosses by value and LWIP reads the block in place.
 *
 * The zero-copy calls ride a core::CallRing into LWIP: submitSendZero
 * and submitZeroCopyDone queue the call and flushRing() executes the
 * whole batch under ONE trampoline/PKRU switch (the io_uring shape).
 * The synchronous wrappers push-then-flush, so any pending queued
 * calls batch with them for free; results land exactly as if each
 * call had been made directly, and per-edge call accounting (Fig. 5)
 * is unchanged — only the switches are amortised.
 */

#ifndef CUBICLEOS_LIBOS_SOCKAPI_H_
#define CUBICLEOS_LIBOS_SOCKAPI_H_

#include "core/system.h"
#include "libos/grant.h"
#include "libos/tcpip.h"

namespace cubicleos::libos {

/** Socket API bound to cross-cubicle LWIP calls. */
class CubicleSockApi {
  public:
    /** Must be constructed while executing inside the app cubicle. */
    explicit CubicleSockApi(core::System &sys);
    ~CubicleSockApi() = default;

    // Every wrapper converts core::PeerFault — LWIP destroyed or
    // draining (DESIGN.md §15) — into kNetPeerFault instead of letting
    // the exception unwind the application: socket code predating the
    // lifecycle subsystem already handles negative NetErr returns.
    int socket()
    {
        return core::catchPeerFault<int>([&] { return socket_(); });
    }
    int bind(int fd, uint16_t port)
    {
        return core::catchPeerFault<int>([&] { return bind_(fd, port); });
    }
    int listen(int fd, int backlog)
    {
        return core::catchPeerFault<int>([&] { return listen_(fd, backlog); });
    }
    int accept(int fd)
    {
        return core::catchPeerFault<int>([&] { return accept_(fd); });
    }
    int connect(int fd, uint32_t ip, uint16_t port)
    {
        return core::catchPeerFault<int>(
            [&] { return connect_(fd, ip, port); });
    }
    int64_t send(int fd, const void *buf, std::size_t n);
    int64_t recv(int fd, void *buf, std::size_t n);
    int close(int fd)
    {
        return core::catchPeerFault<int>([&] { return close_(fd); });
    }
    /** False (not an error) when the stack died: the peer is gone. */
    bool established(int fd)
    {
        return core::catchPeerFault<int>([&] { return established_(fd); }) > 0;
    }
    bool sendDrained(int fd)
    {
        return core::catchPeerFault<int>([&] { return sendDrained_(fd); }) > 0;
    }
    /** Drives the stack; batches with any pending submitted calls. */
    int64_t poll(uint64_t now_ns);

    /**
     * Queues a borrowed span for zero-copy transmission (all or
     * nothing): returns @p n once queued, kNetAgain when the send
     * buffer cannot take the whole span yet. The span must stay
     * granted to the LWIP cubicle until zeroCopyDone reports it.
     */
    int64_t sendZero(int fd, const void *span, std::size_t n);
    /**
     * Number of zero-copy spans fully acknowledged since the last
     * call, in FIFO queue order — the caller releases that many of its
     * oldest outstanding borrows.
     */
    int64_t zeroCopyDone(int fd);

    // --- Batched submission (io_uring shape) -------------------------
    // submit* queues the call without crossing into LWIP; flushRing()
    // executes every queued call under a single trampoline/PKRU
    // switch, in submission order. Each *out target must stay alive
    // until the flush and is written when its call executes. A full
    // ring self-flushes on the next submit. When LWIP dies mid-batch
    // the ring writes kNetPeerFault into every unexecuted call's *out
    // (the verdict word), so submitters see per-call failures, never
    // an exception.

    /** Queues sendZero(fd, span, n); result lands in @p out at flush. */
    void submitSendZero(int fd, const void *span, std::size_t n,
                        int64_t *out);
    /** Queues zeroCopyDone(fd); result lands in @p out at flush. */
    void submitZeroCopyDone(int fd, int64_t *out);
    /** Queues poll(now_ns); result lands in @p out at flush. */
    void submitPoll(uint64_t now_ns, int64_t *out);
    /** Executes the queued batch; returns the number of calls run. */
    std::size_t flushRing() { return ring_.flush(); }
    /** Calls queued but not yet flushed. */
    std::size_t ringPending() const { return ring_.pending(); }

  private:
    /**
     * Queues @p fn, flushing first if the ring is full. @p verdict
     * (usually the call's *out word) receives kNetPeerFault if the
     * batch dies before @p fn runs.
     */
    template <typename Fn>
    void enqueue(Fn &&fn, int64_t *verdict = nullptr)
    {
        if (!ring_.push(std::forward<Fn>(fn), verdict)) {
            ring_.flush();
            ring_.push(std::forward<Fn>(fn), verdict);
        }
    }

    core::System &sys_;
    core::Cid lwipCid_;
    PeerSet lwipPeer_;
    GrantWindow window_;
    core::CallRing ring_;

    core::CrossFn<int()> socket_;
    core::CrossFn<int(int, uint16_t)> bind_;
    core::CrossFn<int(int, int)> listen_;
    core::CrossFn<int(int)> accept_;
    core::CrossFn<int(int, uint32_t, uint16_t)> connect_;
    core::CrossFn<int64_t(int, const void *, std::size_t)> send_;
    core::CrossFn<int64_t(int, void *, std::size_t)> recv_;
    core::CrossFn<int(int)> close_;
    core::CrossFn<int(int)> established_;
    core::CrossFn<int(int)> sendDrained_;
    core::CrossFn<int64_t(uint64_t)> poll_;
    core::CrossFn<int64_t(int, const void *, std::size_t)> sendz_;
    core::CrossFn<int64_t(int)> zcDone_;
};

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_SOCKAPI_H_
