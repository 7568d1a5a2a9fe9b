/**
 * @file
 * The BOOT cubicle: late system initialisation.
 *
 * Registered last so it runs after every other component's init: wires
 * cubicle heaps through the ALLOC component and mounts the root file
 * system. Mirrors Unikraft's boot sequence, which CubicleOS isolates
 * into its own cubicle (BOOT appears in the paper's Fig. 8).
 */

#ifndef CUBICLEOS_LIBOS_BOOT_H_
#define CUBICLEOS_LIBOS_BOOT_H_

#include <string>

#include "builder/image.h"
#include "core/system.h"
#include "libos/alloc.h"
#include "libos/ukapi.h"

namespace cubicleos::libos {

/** The isolated boot component. */
class BootComponent : public core::Component {
  public:
    /**
     * @param rootfs backend to mount at "/", empty to skip mounting
     * @param wire_heaps route heap chunk requests through ALLOC
     */
    explicit BootComponent(std::string rootfs = "ramfs",
                           bool wire_heaps = true)
        : rootfs_(std::move(rootfs)), wireHeaps_(wire_heaps)
    {}

    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = "boot";
        s.kind = core::CubicleKind::kIsolated;
        s.image = builder::componentImage(builder::ImageSeed::kBoot);
        return s;
    }

    void registerExports(core::Exporter &) override {}

    void init() override
    {
        if (wireHeaps_)
            wireHeapsThroughAlloc(*sys());
        if (!rootfs_.empty()) {
            const int rc = mountRoot(*sys(), rootfs_);
            if (rc != 0) {
                throw core::LoaderError("boot: mounting '" + rootfs_ +
                                        "' failed with " +
                                        std::to_string(rc));
            }
        }
    }

  private:
    std::string rootfs_;
    bool wireHeaps_;
};

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_BOOT_H_
