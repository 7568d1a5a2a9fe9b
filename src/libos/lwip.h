/**
 * @file
 * The LWIP cubicle: the isolated TCP/IP stack component.
 *
 * Wraps TcpIpStack and exports the socket API; exchanges packets with
 * the NETDEV cubicle through cross-cubicle calls over windowed packet
 * buffers. This is the NGINX deployment's hottest edge in the paper
 * (NGINX→LWIP: 44,135 calls; LWIP→NETDEV: 6,991×4 in Fig. 5).
 *
 * Each stack fd belongs to the cubicle that opened it (lwip_socket)
 * or accepted it (lwip_accept, on a listener it owns); every export
 * that takes an fd refuses any other caller with kNetBadFd.
 */

#ifndef CUBICLEOS_LIBOS_LWIP_H_
#define CUBICLEOS_LIBOS_LWIP_H_

#include <optional>
#include <vector>

#include "builder/image.h"
#include "core/system.h"
#include "libos/grant.h"
#include "libos/netdev.h"
#include "libos/tcpip.h"

namespace cubicleos::libos {

/** The isolated network-stack component. */
class LwipComponent : public core::Component {
  public:
    explicit LwipComponent(const TcpConfig &cfg = {}) : tcpCfg_(cfg) {}

    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = "lwip";
        s.kind = core::CubicleKind::kIsolated;
        s.image = builder::componentImage(builder::ImageSeed::kLwip);
        return s;
    }

    void registerExports(core::Exporter &exp) override;
    void init() override;

    /** Protocol statistics (introspection). */
    const TcpStats &tcpStats() const { return stack_.stats(); }

  private:
    int64_t doPoll(uint64_t now_ns);
    /** Records the caller as the owner of @p fd (if valid); returns it. */
    int claim(int fd);
    /** Whether the caller owns @p fd. */
    bool owns(int fd);

    TcpConfig tcpCfg_;
    TcpIpStack stack_{tcpCfg_};
    core::CrossFn<int(const uint8_t *, std::size_t)> netdevTx_;
    core::CrossFn<int64_t(uint8_t *, std::size_t)> netdevRx_;
    uint8_t *rxBuf_ = nullptr;  ///< windowed for NETDEV
    uint8_t *txBuf_ = nullptr;  ///< windowed for NETDEV
    GrantWindow netdevWin_;     ///< persistent grant over both buffers
    uint64_t zcSegsSeen_ = 0;   ///< stack zc counters already mirrored
    uint64_t zcBytesSeen_ = 0;
    /**
     * Owner of each stack fd, by fd: none for a closed fd or a
     * connection not yet accepted.
     */
    std::vector<std::optional<core::Cid>> owners_;
};

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_LWIP_H_
