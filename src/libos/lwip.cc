#include "libos/lwip.h"

#include <cstring>

#include "libos/grant.h"

namespace cubicleos::libos {

void
LwipComponent::init()
{
    netdevTx_ = sys()->resolve<int(const uint8_t *, std::size_t)>(
        "netdev", "netdev_tx");
    netdevRx_ = sys()->resolve<int64_t(uint8_t *, std::size_t)>(
        "netdev", "netdev_rx");

    // Packet staging buffers in LWIP-owned pages, windowed for NETDEV
    // so packet payloads move zero-copy through the driver boundary.
    // The window is hot (§8): these two pages change hands on every
    // single frame — the stack writes txBuf_, the driver reads it, the
    // driver writes rxBuf_, the stack reads it — which is the
    // frequently-used-window case the paper gives a dedicated MPK key.
    // A cold window here costs two to three trap-and-map faults per
    // frame (~10k modelled cycles against a ~4 us wire), dominating the
    // large-transfer overhead.
    auto rx = sys()->monitor().allocPagesFor(self(), 1,
                                             mem::PageType::kHeap);
    auto tx = sys()->monitor().allocPagesFor(self(), 1,
                                             mem::PageType::kHeap);
    if (!rx.valid() || !tx.valid())
        throw core::OutOfMemory("lwip packet buffers");
    rxBuf_ = reinterpret_cast<uint8_t *>(rx.ptr);
    txBuf_ = reinterpret_cast<uint8_t *>(tx.ptr);

    const PeerSet netdevPeers{sys()->cidOf("netdev")};
    netdevWin_ = GrantWindow(*sys(), netdevPeers, /*hot=*/true);
    netdevWin_.stage(rxBuf_, hw::kPageSize);
    netdevWin_.stage(txBuf_, hw::kPageSize);

    // Feed the stack's payload-copy accounting into the system-wide
    // data-copy counters the sendfile experiment compares.
    stack_.setCopyHook(
        [this](std::size_t bytes) { sys()->stats().countDataCopy(bytes); });
}

int64_t
LwipComponent::doPoll(uint64_t now_ns)
{
    int64_t processed = 0;

    // Timers first: an ACK delayed by the last round falls due now,
    // while one for a segment drained below waits a round for the
    // reply the application may queue in between.
    stack_.tick(now_ns);

    // Drain the device's receive queue into the stack.
    for (;;) {
        const int64_t n = netdevRx_(rxBuf_, kMtu);
        if (n <= 0)
            break;
        // The device wrote our buffer; reclaim the page lazily.
        sys()->touch(rxBuf_, static_cast<std::size_t>(n),
                     hw::Access::kRead);
        stack_.input(rxBuf_, static_cast<std::size_t>(n));
        ++processed;
    }

    // Emit every sendable segment through the driver.
    stack_.pollOutput([&](const uint8_t *pkt, std::size_t len) {
        sys()->touch(txBuf_, len, hw::Access::kWrite);
        std::memcpy(txBuf_, pkt, len);
        netdevTx_(txBuf_, len);
        ++processed;
    });

    // Mirror the stack's zero-copy segment counters into the
    // system-wide stats (the stack itself is System-agnostic).
    const TcpStats &ts = stack_.stats();
    if (ts.zcSegsOut > zcSegsSeen_) {
        core::Stats &st = sys()->stats();
        st.add(core::Stat::zeroCopySends, ts.zcSegsOut - zcSegsSeen_);
        st.add(core::Stat::zeroCopyBytes, ts.zcBytesOut - zcBytesSeen_);
        zcSegsSeen_ = ts.zcSegsOut;
        zcBytesSeen_ = ts.zcBytesOut;
    }
    return processed;
}

int
LwipComponent::claim(int fd)
{
    if (fd < 0)
        return fd;
    const auto i = static_cast<std::size_t>(fd);
    if (i >= owners_.size())
        owners_.resize(i + 1);
    owners_[i] = sys()->caller();
    return fd;
}

bool
LwipComponent::owns(int fd)
{
    return fd >= 0 && static_cast<std::size_t>(fd) < owners_.size() &&
           owners_[static_cast<std::size_t>(fd)] == sys()->caller();
}

void
LwipComponent::registerExports(core::Exporter &exp)
{
    exp.fn<int()>("lwip_socket", [this] { return claim(stack_.socket()); });
    exp.fn<int(int, uint16_t)>("lwip_bind", [this](int fd, uint16_t p) {
        return owns(fd) ? stack_.bind(fd, p) : kNetBadFd;
    });
    exp.fn<int(int, int)>("lwip_listen", [this](int fd, int bl) {
        return owns(fd) ? stack_.listen(fd, bl) : kNetBadFd;
    });
    // A child belongs to whoever accepts it: the listener's owner.
    exp.fn<int(int)>("lwip_accept", [this](int fd) {
        return owns(fd) ? claim(stack_.accept(fd)) : kNetBadFd;
    });
    exp.fn<int(int, uint32_t, uint16_t)>(
        "lwip_connect", [this](int fd, uint32_t ip, uint16_t port) {
            return owns(fd) ? stack_.connect(fd, ip, port) : kNetBadFd;
        });
    exp.fn<int64_t(int, const void *, std::size_t)>(
        "lwip_send", [this](int fd, const void *buf, std::size_t n) {
            if (!owns(fd))
                return int64_t{kNetBadFd};
            if (n > 0)
                sys()->touch(buf, n, hw::Access::kRead);
            return stack_.send(fd, buf, n);
        });
    exp.fn<int64_t(int, void *, std::size_t)>(
        "lwip_recv", [this](int fd, void *buf, std::size_t n) {
            if (!owns(fd))
                return int64_t{kNetBadFd};
            if (n > 0)
                sys()->touch(buf, n, hw::Access::kWrite);
            return stack_.recv(fd, buf, n);
        });
    exp.fn<int64_t(int, const void *, std::size_t)>(
        "lwip_sendz", [this](int fd, const void *span, std::size_t n) {
            if (!owns(fd))
                return int64_t{kNetBadFd};
            // The span lives in backend-owned pages granted to this
            // cubicle by the borrow that produced it; the touch models
            // our first read through that grant. No bytes are copied —
            // the queue keeps only the reference.
            if (n > 0)
                sys()->touch(span, n, hw::Access::kRead);
            return stack_.sendZero(fd, span, n);
        });
    exp.fn<int64_t(int)>("lwip_zc_done", [this](int fd) {
        return owns(fd) ? stack_.zeroCopyDone(fd) : int64_t{kNetBadFd};
    });
    // The stack keeps a closing connection until its FIN exchange
    // ends, but the fd is no longer the caller's.
    exp.fn<int(int)>("lwip_close", [this](int fd) {
        if (!owns(fd))
            return int{kNetBadFd};
        owners_[static_cast<std::size_t>(fd)].reset();
        return stack_.close(fd);
    });
    exp.fn<int(int)>("lwip_established", [this](int fd) {
        if (!owns(fd))
            return int{kNetBadFd};
        return stack_.isEstablished(fd) ? 1 : 0;
    });
    exp.fn<int64_t(uint64_t)>(
        "lwip_poll", [this](uint64_t now_ns) { return doPoll(now_ns); });
}

} // namespace cubicleos::libos
