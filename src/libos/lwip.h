/**
 * @file
 * The LWIP cubicle: the isolated TCP/IP stack component.
 *
 * Wraps TcpIpStack and exports the socket API; exchanges packets with
 * the NETDEV cubicle through cross-cubicle calls over windowed packet
 * buffers. This is the NGINX deployment's hottest edge in the paper
 * (NGINX→LWIP: 44,135 calls; LWIP→NETDEV: 6,991×4 in Fig. 5).
 */

#ifndef CUBICLEOS_LIBOS_LWIP_H_
#define CUBICLEOS_LIBOS_LWIP_H_

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

    TcpConfig tcpCfg_;
    TcpIpStack stack_{tcpCfg_};
    core::CrossFn<int(const uint8_t *, std::size_t)> netdevTx_;
    core::CrossFn<int64_t(uint8_t *, std::size_t)> netdevRx_;
    uint8_t *rxBuf_ = nullptr;  ///< windowed for NETDEV
    uint8_t *txBuf_ = nullptr;  ///< windowed for NETDEV
    GrantWindow netdevWin_;     ///< persistent grant over both buffers
    uint64_t zcSegsSeen_ = 0;   ///< stack zc counters already mirrored
    uint64_t zcBytesSeen_ = 0;
};

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_LWIP_H_
