#include "libos/sockapi.h"

namespace cubicleos::libos {

using core::catchPeerFault;

CubicleSockApi::CubicleSockApi(core::System &sys)
    : sys_(sys),
      lwipCid_(sys.cidOf("lwip")),
      lwipPeer_{lwipCid_},
      window_(sys, lwipPeer_),
      ring_(sys, lwipCid_),
      socket_(sys.resolve<int()>("lwip", "lwip_socket")),
      bind_(sys.resolve<int(int, uint16_t)>("lwip", "lwip_bind")),
      listen_(sys.resolve<int(int, int)>("lwip", "lwip_listen")),
      accept_(sys.resolve<int(int)>("lwip", "lwip_accept")),
      connect_(sys.resolve<int(int, uint32_t, uint16_t)>("lwip",
                                                         "lwip_connect")),
      send_(sys.resolve<int64_t(int, const void *, std::size_t)>(
          "lwip", "lwip_send")),
      recv_(sys.resolve<int64_t(int, void *, std::size_t)>("lwip",
                                                           "lwip_recv")),
      close_(sys.resolve<int(int)>("lwip", "lwip_close")),
      established_(sys.resolve<int(int)>("lwip", "lwip_established")),
      sendDrained_(sys.resolve<int(int)>("lwip", "lwip_send_drained")),
      poll_(sys.resolve<int64_t(uint64_t)>("lwip", "lwip_poll")),
      sendz_(sys.resolve<int64_t(int, const void *, std::size_t)>(
          "lwip", "lwip_sendz")),
      zcDone_(sys.resolve<int64_t(int)>("lwip", "lwip_zc_done"))
{
}

int64_t
CubicleSockApi::send(int fd, const void *buf, std::size_t n)
{
    // The Grant un-stages, closes and reclaims on every exit path —
    // including an exception thrown by the resolved callee (the old
    // inline add/open…remove/closeAll sequence leaked an open window
    // whenever the callee threw). LWIP always copies the buffer into
    // its send queue, so declare the read up front: the prestage retag
    // replaces the guaranteed first-touch fault.
    return catchPeerFault<int64_t>([&] {
        Grant grant(sys_, window_, lwipPeer_, buf, n, hw::Access::kRead,
                    Prestage::kRead);
        return send_(fd, buf, n);
    });
}

int64_t
CubicleSockApi::recv(int fd, void *buf, std::size_t n)
{
    // LWIP writes received bytes into the buffer (when data is
    // pending); declare the write so the delivery path never faults.
    return catchPeerFault<int64_t>([&] {
        Grant grant(sys_, window_, lwipPeer_, buf, n, hw::Access::kRead,
                    Prestage::kWrite);
        return recv_(fd, buf, n);
    });
}

int64_t
CubicleSockApi::poll(uint64_t now_ns)
{
    // Push-then-flush: a poll becomes the tail of whatever batch is
    // already queued, so callers that submitted zero-copy work earlier
    // in the round get it executed under this poll's switch.
    int64_t r = 0;
    enqueue([this, now_ns, &r] { r = poll_(now_ns); }, &r);
    ring_.flush();
    return r;
}

int64_t
CubicleSockApi::sendZero(int fd, const void *span, std::size_t n)
{
    // No window work: the span is backend memory already granted to
    // LWIP by the borrow that produced it.
    int64_t r = 0;
    enqueue([this, fd, span, n, &r] { r = sendz_(fd, span, n); }, &r);
    ring_.flush();
    return r;
}

int64_t
CubicleSockApi::zeroCopyDone(int fd)
{
    int64_t r = 0;
    enqueue([this, fd, &r] { r = zcDone_(fd); }, &r);
    ring_.flush();
    return r;
}

void
CubicleSockApi::submitSendZero(int fd, const void *span, std::size_t n,
                               int64_t *out)
{
    enqueue([this, fd, span, n, out] { *out = sendz_(fd, span, n); },
            out);
}

void
CubicleSockApi::submitZeroCopyDone(int fd, int64_t *out)
{
    enqueue([this, fd, out] { *out = zcDone_(fd); }, out);
}

void
CubicleSockApi::submitPoll(uint64_t now_ns, int64_t *out)
{
    enqueue([this, now_ns, out] { *out = poll_(now_ns); }, out);
}

} // namespace cubicleos::libos
