/**
 * @file
 * Helpers assembling the standard library-OS cubicle configurations
 * used throughout the evaluation:
 *
 *  - SQLite deployment (paper Fig. 8): PLAT, ALLOC, TIME, VFSCORE,
 *    RAMFS, <application>, BOOT as isolated cubicles + shared LIBC and
 *    RANDOM — 7 isolated cubicles with the application.
 *  - NGINX deployment (paper Fig. 5): the above plus NETDEV and LWIP —
 *    8 isolated cubicles.
 */

#ifndef CUBICLEOS_LIBOS_STACK_H_
#define CUBICLEOS_LIBOS_STACK_H_

#include <memory>

#include "core/system.h"

namespace cubicleos::libos {

class FrameChannel;

/** Options for buildLibosStack(). */
struct StackOptions {
    /** Also register NETDEV and the LWIP network stack. */
    bool withNet = false;
    /** Wire connecting NETDEV to the outside world (required if net). */
    FrameChannel *wire = nullptr;
};

/**
 * Registers the base library OS components on @p sys: PLAT, ALLOC,
 * TIME, VFSCORE, RAMFS (+ NETDEV, LWIP when requested) and the shared
 * LIBC and RANDOM cubicles. The caller then registers application
 * components and finally finishBoot().
 */
void addLibosComponents(core::System &sys, const StackOptions &opts = {});

/**
 * Registers the BOOT component (mounting "ramfs" at the root and wiring
 * heaps through ALLOC) and boots the system.
 */
void finishBoot(core::System &sys);

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_STACK_H_
