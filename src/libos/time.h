/**
 * @file
 * The TIME cubicle: monotonic and wall clocks for the library OS.
 *
 * Isolated component; obtains raw ticks from PLAT through cross-cubicle
 * calls (generating the TIME→PLAT edge visible in the paper's component
 * graphs) and caches a boot offset.
 */

#ifndef CUBICLEOS_LIBOS_TIME_H_
#define CUBICLEOS_LIBOS_TIME_H_

#include "builder/image.h"
#include "core/system.h"

namespace cubicleos::libos {

/** The isolated time component. */
class TimeComponent : public core::Component {
  public:
    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = "time";
        s.kind = core::CubicleKind::kIsolated;
        s.image = builder::componentImage(builder::ImageSeed::kTime);
        return s;
    }

    void registerExports(core::Exporter &exp) override;
    void init() override;

  private:
    core::CrossFn<uint64_t()> platTicks_;
    uint64_t bootNs_ = 0;
};

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_TIME_H_
