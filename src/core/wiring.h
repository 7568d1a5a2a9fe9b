/**
 * @file
 * Wiring snapshot: the monitor's plain-data export of a booted
 * system's isolation topology — the cubicle table, the live window
 * descriptors with their ACL bitmasks and fault-observed usage, and
 * the export registry.
 *
 * Monitor::snapshotWiring fills the cubicle and window rows;
 * System::wiringSnapshot appends the exports. Nothing in the trusted
 * core reads a snapshot back: the isolation linter and least-privilege
 * auditor (src/audit) consume it outside the TCB, and tests build
 * snapshots by hand.
 */

#ifndef CUBICLEOS_CORE_WIRING_H_
#define CUBICLEOS_CORE_WIRING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/ids.h"
#include "core/window.h"

namespace cubicleos::core {

struct CubicleWiring {
    Cid id = kNoCubicle;
    std::string name;
    CubicleKind kind = CubicleKind::kIsolated;
    int pkey = -1;
};

struct WindowWiring {
    Wid wid = kInvalidWindow;
    Cid owner = kNoCubicle;
    AclMask acl = 0;
    uint32_t rangeCount = 0;
    int hotKey = -1;
    /** Ranges added over the window's whole lifetime (survives removes). */
    uint32_t rangesEverAdded = 0;
    /** Peers that actually faulted a read / write through the window
     *  (dataflow history for the least-privilege audit; zero for hot
     *  windows, which are retagged eagerly and never fault). */
    AclMask usedRead = 0;
    AclMask usedWrite = 0;
};

struct ExportWiring {
    std::string name;
    Cid owner = kNoCubicle;
    CubicleKind ownerKind = CubicleKind::kIsolated;
    /** The export's signature as typeid(Sig).name() mangles it. */
    std::string sigName;
};

struct WiringSnapshot {
    int sharedKey = -1;
    std::vector<CubicleWiring> cubicles;
    std::vector<WindowWiring> windows; ///< live windows only
    std::vector<ExportWiring> exports;
};

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_WIRING_H_
