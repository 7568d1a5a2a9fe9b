#include "libos/stack.h"

#include "libos/alloc.h"
#include "libos/boot.h"
#include "libos/libc.h"
#include "libos/lwip.h"
#include "libos/netdev.h"
#include "libos/plat.h"
#include "libos/ramfs.h"
#include "libos/random.h"
#include "libos/shared_utils.h"
#include "libos/time.h"
#include "libos/vfscore.h"

namespace cubicleos::libos {

void
addLibosComponents(core::System &sys, const StackOptions &opts)
{
    // Registration order is dependency order (Unikraft link order):
    // platform and allocator first, stacks above them.
    sys.addComponent(std::make_unique<PlatComponent>());
    sys.addComponent(std::make_unique<AllocComponent>());
    sys.addComponent(std::make_unique<TimeComponent>());
    sys.addComponent(std::make_unique<VfsComponent>());
    sys.addComponent(std::make_unique<RamfsComponent>());
    if (opts.withNet) {
        sys.addComponent(std::make_unique<NetdevComponent>(opts.wire));
        sys.addComponent(std::make_unique<LwipComponent>());
    }
    // Shared cubicles (the paper's deployments use four: newlibc and
    // the random driver explicitly, plus stateless helpers).
    sys.addComponent(std::make_unique<LibcComponent>());
    sys.addComponent(std::make_unique<RandomComponent>());
    sys.addComponent(std::make_unique<CtypeComponent>());
    sys.addComponent(std::make_unique<UkmathComponent>());
}

void
finishBoot(core::System &sys)
{
    sys.addComponent(std::make_unique<BootComponent>());
    sys.boot();
}

} // namespace cubicleos::libos
