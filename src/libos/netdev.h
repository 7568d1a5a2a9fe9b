/**
 * @file
 * The NETDEV cubicle: a virtual network interface, plus the host-side
 * FrameChannel "wire" it attaches to.
 *
 * The paper's NGINX deployment isolates the network device driver in
 * its own cubicle (Fig. 5). Here the device moves IP packets between
 * cubicle memory and a host-side queue pair (the simulated wire, which
 * models per-frame and per-byte latency on the virtual cycle clock).
 */

#ifndef CUBICLEOS_LIBOS_NETDEV_H_
#define CUBICLEOS_LIBOS_NETDEV_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "builder/image.h"
#include "core/system.h"

namespace cubicleos::libos {

/** Maximum transfer unit of the simulated wire (IP packet bytes). */
inline constexpr std::size_t kMtu = 1500;

/**
 * A lossless, ordered, bidirectional frame queue: the wire between the
 * cubicle-hosted NETDEV and an external peer (the benchmark client).
 *
 * Latency model: every frame charges a fixed per-frame cost plus a
 * per-byte cost to the attached cycle clock, approximating a 1 Gb/s
 * link with microsecond-scale switching.
 */
class FrameChannel {
  public:
    using Frame = std::vector<uint8_t>;

    /**
     * @param clock clock charged for wire latency; may be null.
     *
     * Defaults model the paper's same-machine measurement setup
     * (siege against NGINX over loopback): ~4 us per frame of
     * kernel/driver handling and ~10 Gb/s of streaming bandwidth.
     */
    explicit FrameChannel(hw::CycleClock *clock = nullptr,
                          uint64_t frame_cycles = 8800, // ~4 us
                          double byte_cycles = 1.76)    // ~10 Gb/s
        : clock_(clock), frameCycles_(frame_cycles),
          byteCycles_(byte_cycles)
    {}

    /** Host/peer side: queue a frame towards the device. */
    void hostSend(Frame frame)
    {
        chargeWire(frame.size());
        toDevice_.push_back(std::move(frame));
    }

    /** Host/peer side: take the next frame the device transmitted. */
    std::optional<Frame> hostRecv()
    {
        if (fromDevice_.empty())
            return std::nullopt;
        Frame f = std::move(fromDevice_.front());
        fromDevice_.pop_front();
        return f;
    }

    /** Device side: transmit a frame to the wire. */
    void devTx(Frame frame)
    {
        chargeWire(frame.size());
        fromDevice_.push_back(std::move(frame));
    }

    /** Device side: receive the next frame from the wire. */
    std::optional<Frame> devRx()
    {
        if (toDevice_.empty())
            return std::nullopt;
        Frame f = std::move(toDevice_.front());
        toDevice_.pop_front();
        return f;
    }

    std::size_t pendingToDevice() const { return toDevice_.size(); }
    std::size_t pendingFromDevice() const { return fromDevice_.size(); }

    uint64_t framesCarried() const { return frames_; }
    uint64_t bytesCarried() const { return bytes_; }

  private:
    void chargeWire(std::size_t len)
    {
        ++frames_;
        bytes_ += len;
        if (clock_) {
            clock_->charge(frameCycles_ +
                           static_cast<uint64_t>(byteCycles_ *
                                                 static_cast<double>(len)));
        }
    }

    hw::CycleClock *clock_;
    uint64_t frameCycles_;
    double byteCycles_;
    std::deque<Frame> toDevice_;
    std::deque<Frame> fromDevice_;
    uint64_t frames_ = 0;
    uint64_t bytes_ = 0;
};

/** The isolated network-device component. */
class NetdevComponent : public core::Component {
  public:
    /** @param wire the channel this device attaches to (not owned). */
    explicit NetdevComponent(FrameChannel *wire) : wire_(wire) {}

    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = "netdev";
        s.kind = core::CubicleKind::kIsolated;
        s.image = builder::componentImage(builder::ImageSeed::kNetdev);
        return s;
    }

    void registerExports(core::Exporter &exp) override;

    uint64_t txCount() const { return tx_; }
    uint64_t rxCount() const { return rx_; }

  private:
    FrameChannel *wire_;
    uint64_t tx_ = 0;
    uint64_t rx_ = 0;
};

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_NETDEV_H_
