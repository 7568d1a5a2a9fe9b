/**
 * @file
 * The PLAT cubicle: platform glue (console, raw ticks, abort).
 *
 * Unikraft's platform code is the layer that would issue host system
 * calls; in CubicleOS it is an isolated cubicle so a compromised driver
 * cannot reach the host interface of other components. In this
 * reproduction "the host" is the simulated machine: console output is
 * collected in-memory (or echoed), and ticks come from the virtual
 * cycle clock plus real time.
 */

#ifndef CUBICLEOS_LIBOS_PLAT_H_
#define CUBICLEOS_LIBOS_PLAT_H_

#include <chrono>
#include <string>

#include "builder/image.h"
#include "core/system.h"

namespace cubicleos::libos {

/** The isolated platform component. */
class PlatComponent : public core::Component {
  public:
    explicit PlatComponent(bool echo_console = false)
        : echo_(echo_console)
    {}

    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = "plat";
        s.kind = core::CubicleKind::kIsolated;
        s.image = builder::componentImage(builder::ImageSeed::kPlat);
        return s;
    }

    void registerExports(core::Exporter &exp) override;

    /** Console output captured so far (host-side introspection). */
    const std::string &consoleLog() const { return console_; }

  private:
    uint64_t nowNs() const;

    bool echo_;
    std::string console_;
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
};

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_PLAT_H_
