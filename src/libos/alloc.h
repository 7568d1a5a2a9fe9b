/**
 * @file
 * The ALLOC cubicle: system-wide coarse-grained (page) allocator.
 *
 * Each cubicle runs its own fine-grained sub-allocator and only comes
 * to ALLOC for whole-page chunks (paper §6.4) — which is why the
 * paper's Fig. 8 shows RAMFS→ALLOC as the hottest edge of the SQLite
 * deployment. wireHeapsThroughAlloc() reroutes every cubicle heap's
 * page source through cross-cubicle calls into this component.
 */

#ifndef CUBICLEOS_LIBOS_ALLOC_H_
#define CUBICLEOS_LIBOS_ALLOC_H_

#include "builder/image.h"
#include "core/system.h"

namespace cubicleos::libos {

/** The isolated page-allocator component. */
class AllocComponent : public core::Component {
  public:
    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = "alloc";
        s.kind = core::CubicleKind::kIsolated;
        s.image = builder::componentImage(builder::ImageSeed::kAlloc);
        return s;
    }

    void registerExports(core::Exporter &exp) override;

    /** Pages handed out since boot (introspection). */
    uint64_t pagesServed() const { return pagesServed_; }

  private:
    uint64_t pagesServed_ = 0;
};

/**
 * Reroutes the heap page source of every isolated cubicle except ALLOC
 * itself through cross-cubicle calls to the ALLOC component. Call once
 * after boot (typically from the BOOT component's init).
 */
void wireHeapsThroughAlloc(core::System &sys);

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_ALLOC_H_
