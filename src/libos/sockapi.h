/**
 * @file
 * CubicleSockApi: application-side socket glue with window management.
 *
 * The socket-API half of the NGINX porting effort (paper: 390 SLOC):
 * brackets every lwip_send/lwip_recv with grant-layer window grants
 * over the application's buffers and hands them back afterwards,
 * mirroring CubicleFileApi for the file path. The RAII Grant makes the
 * bracket exception-safe: a throwing callee can no longer leak an open
 * window.
 *
 * sendZero/zeroCopyDone expose the zero-copy sendfile path: the spans
 * passed to sendZero are backend-owned blocks already granted to the
 * LWIP cubicle (via vfs_borrow), so no window management happens here
 * — the pointer crosses by value and LWIP reads the block in place.
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
    /** Drives the stack. */
    int64_t poll(uint64_t now_ns)
    {
        return core::catchPeerFault<int64_t>([&] { return poll_(now_ns); });
    }

    /**
     * Queues a borrowed span for zero-copy transmission (all or
     * nothing): returns @p n once queued, kNetAgain when the send
     * buffer cannot take the whole span yet. The span must stay
     * granted to the LWIP cubicle until zeroCopyDone reports it. No
     * window work: the borrow that produced the span granted it.
     */
    int64_t sendZero(int fd, const void *span, std::size_t n)
    {
        return core::catchPeerFault<int64_t>(
            [&] { return sendz_(fd, span, n); });
    }
    /**
     * Number of zero-copy spans fully acknowledged since the last
     * call, in FIFO queue order — the caller releases that many of its
     * oldest outstanding borrows.
     */
    int64_t zeroCopyDone(int fd)
    {
        return core::catchPeerFault<int64_t>([&] { return zcDone_(fd); });
    }

  private:
    core::System &sys_;
    PeerSet lwipPeer_;
    GrantWindow window_;

    core::CrossFn<int()> socket_;
    core::CrossFn<int(int, uint16_t)> bind_;
    core::CrossFn<int(int, int)> listen_;
    core::CrossFn<int(int)> accept_;
    core::CrossFn<int(int, uint32_t, uint16_t)> connect_;
    core::CrossFn<int64_t(int, const void *, std::size_t)> send_;
    core::CrossFn<int64_t(int, void *, std::size_t)> recv_;
    core::CrossFn<int(int)> close_;
    core::CrossFn<int(int)> established_;
    core::CrossFn<int64_t(uint64_t)> poll_;
    core::CrossFn<int64_t(int, const void *, std::size_t)> sendz_;
    core::CrossFn<int64_t(int)> zcDone_;
};

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_SOCKAPI_H_
