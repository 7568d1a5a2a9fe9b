/**
 * @file
 * The shared RANDOM cubicle: a deterministic pseudo-random device.
 *
 * Mirrors Unikraft's random device driver, which CubicleOS keeps in a
 * shared cubicle (paper §6.3). It starts from a fixed seed so
 * benchmark workloads are reproducible; rand_seed reseeds it.
 */

#ifndef CUBICLEOS_LIBOS_RANDOM_H_
#define CUBICLEOS_LIBOS_RANDOM_H_

#include "builder/image.h"
#include "core/system.h"
#include "hw/prng.h"

namespace cubicleos::libos {

/** The shared random-device component. */
class RandomComponent : public core::Component {
  public:
    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = "random";
        s.kind = core::CubicleKind::kShared;
        s.image = builder::componentImage(builder::ImageSeed::kRandom);
        return s;
    }

    void registerExports(core::Exporter &exp) override
    {
        exp.fn<uint64_t()>("rand_u64", [this] { return prng_.next(); });
        exp.fn<uint64_t(uint64_t)>(
            "rand_below",
            [this](uint64_t bound) { return prng_.nextBelow(bound); });
        exp.fn<void(uint64_t)>("rand_seed", [this](uint64_t seed) {
            prng_ = hw::Prng(seed);
        });
    }

  private:
    hw::Prng prng_{0xC0FFEE};
};

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_RANDOM_H_
