#include "libos/sockapi.h"

namespace cubicleos::libos {

using core::catchPeerFault;

CubicleSockApi::CubicleSockApi(core::System &sys)
    : sys_(sys),
      lwipPeer_{sys.cidOf("lwip")},
      window_(sys, lwipPeer_),
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

} // namespace cubicleos::libos
