/**
 * @file
 * The component model: what third-party code looks like to CubicleOS.
 *
 * A Component is the unit of isolation — one Unikraft-style library (VFS,
 * RAMFS, the network stack, the application...). Components declare a
 * spec (name, cubicle kind, code image, global and stack sizes),
 * register exported functions with the trusted builder, and get an
 * init() hook executed inside their freshly loaded cubicle at boot.
 *
 * This mirrors the paper's §5.2 build flow: Unikraft's exportsyms.uk
 * becomes registerExports(); the builder generates one cross-cubicle
 * trampoline per exported symbol; callback tables are resolved as
 * dynamic symbols so the loader can interpose trampolines. The code
 * image comes from the build-time image builder (src/builder, outside
 * the trusted core); the loader verifies exactly the image the spec
 * carries.
 */

#ifndef CUBICLEOS_CORE_COMPONENT_H_
#define CUBICLEOS_CORE_COMPONENT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/ids.h"

namespace cubicleos::core {

class System;

/**
 * One relocation-like indirect-call target table the builder declares
 * in ComponentSpec::indirectTables: @c count 4-byte little-endian
 * image offsets starting at @c offset.
 */
struct EntryTable {
    std::size_t offset = 0; ///< byte offset of the table in the image
    std::size_t count = 0;  ///< number of 4-byte entries
};

/** Static description of a component, consumed by the loader. */
struct ComponentSpec {
    std::string name;
    CubicleKind kind = CubicleKind::kIsolated;

    /**
     * Binary code image the loader verifies and maps execute-only. The
     * builder (src/builder) produces it; the monitor never synthesises
     * code and refuses an empty image. The default is one ret byte:
     * the image of a component with no machine code of its own.
     */
    std::vector<uint8_t> image = {0xC3};

    std::size_t globalPages = 2;
    std::size_t stackPages = 0;     ///< 0: use system default

    /**
     * Offsets of exported entry points within @c image. Empty means
     * "the image exports its base", offset 0. The loader only checks
     * that each lies inside the image (an offset past its end fails
     * the load); the auditor's reachability walk (audit/ipcfg.h)
     * starts from them.
     */
    std::vector<std::size_t> entryPoints;

    /**
     * Builder-declared indirect-call target tables (the address-taken
     * set a CFI-instrumented build publishes). Empty means no declared
     * targets. The loader only checks that each table lies inside the
     * image (one that does not fails the load); the auditor's walk
     * resolves every indirect call site against their union and treats
     * the table bytes as data.
     */
    std::vector<EntryTable> indirectTables;
};

/**
 * One exported symbol: a type-erased function owned by a component.
 *
 * @c fn points to a std::function with the exact signature recorded in
 * @c sigName; resolution checks the signature before handing out a
 * callable, the software analogue of the builder parsing the function
 * definition to generate a matching trampoline thunk.
 */
struct ExportSlot {
    std::string name;
    Cid owner = kNoCubicle;
    CubicleKind ownerKind = CubicleKind::kIsolated;
    std::shared_ptr<void> fn;
    const char *sigName = nullptr;
};

/** Collects a component's exports during boot (trusted builder side). */
class Exporter {
  public:
    Exporter(Cid owner, CubicleKind kind,
             std::vector<ExportSlot> *out)
        : owner_(owner), kind_(kind), out_(out)
    {}

    /**
     * Exports @p f under @p name with signature @p Sig.
     *
     * Example: @code exp.fn<int(int, int)>("add", ...); @endcode
     */
    template <typename Sig>
    void fn(const std::string &name, std::function<Sig> f)
    {
        ExportSlot slot;
        slot.name = name;
        slot.owner = owner_;
        slot.ownerKind = kind_;
        slot.fn = std::make_shared<std::function<Sig>>(std::move(f));
        slot.sigName = typeid(Sig).name();
        out_->push_back(std::move(slot));
    }

  private:
    Cid owner_;
    CubicleKind kind_;
    std::vector<ExportSlot> *out_;
};

/**
 * Base class for all components (library OS pieces and applications).
 */
class Component {
  public:
    virtual ~Component() = default;

    /** Static description used by the loader. */
    virtual ComponentSpec spec() const = 0;

    /** Registers public entry points with the trusted builder. */
    virtual void registerExports(Exporter &exp) = 0;

    /**
     * One-time initialisation, executed inside this component's cubicle
     * after every component is loaded (so imports resolve).
     */
    virtual void init() {}

    /**
     * Releases component-held state before a hot-restart re-runs
     * init() (System::restartComponent). Runs inside the *fresh*
     * cubicle, after the monitor swapped the image and heap — a
     * crashed cubicle cannot run code, so pre-crash handles are
     * released best-effort here: stale heap pointers are ignored by
     * the new allocator, and cross-calls into still-live peers work
     * normally. Never called at system shutdown.
     */
    virtual void teardown() {}

    /** The cubicle this component was loaded into. */
    Cid self() const { return self_; }

    /** The owning system (valid from load time). */
    System *sys() const { return sys_; }

    /**
     * Deployment-time colocation: load this component into the cubicle
     * of the named, earlier-registered component instead of a fresh
     * one. This is how coarser partitionings are expressed — e.g. the
     * paper's Fig. 9a merges VFS, RAMFS and the platform code into one
     * "core" module — and lets one component set serve several
     * partitionings, as in Fig. 9's CORE vs CORE+RAMFS splits. Calls
     * between colocated components are plain calls; no trampoline, no
     * permission switch.
     */
    void colocateWith(std::string host) { colocateWith_ = std::move(host); }

  private:
    friend class System;
    System *sys_ = nullptr;
    Cid self_ = kNoCubicle;
    std::string colocateWith_;
};

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_COMPONENT_H_
