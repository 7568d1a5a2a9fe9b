/**
 * @file
 * SQLite-workload deployments for the partitioning experiments
 * (paper §6.5, Fig. 9 and Fig. 10).
 *
 * One factory per bar of Fig. 10:
 *  - Linux          : direct calls + syscall cost model;
 *  - Unikraft       : the full library OS stack, no isolation;
 *  - Genode-3/-4    : message-based IPC on the Linux host (1/2 hops);
 *  - seL4/Fiasco/NOVA (3 or 4 components): microkernel IPC profiles;
 *  - CubicleOS-3/-4 : cubicles with the Fig. 9 partitionings;
 *  - CubicleOS full : the 7-cubicle Fig. 8 deployment (Fig. 6 runs).
 */

#ifndef CUBICLEOS_BASELINES_DEPLOYMENTS_H_
#define CUBICLEOS_BASELINES_DEPLOYMENTS_H_

#include <functional>
#include <memory>
#include <string>

#include "apps/minisql/db.h"
#include "baselines/microkernel.h"
#include "core/system.h"

namespace cubicleos::baselines {

/**
 * A ready-to-measure SQLite substrate: a database plus the execution
 * context and cost model it runs under.
 */
class SqliteDeployment {
  public:
    virtual ~SqliteDeployment() = default;

    const std::string &name() const { return name_; }

    /** The database (already open). */
    virtual minisql::Database &database() = 0;

    /** Modelled hardware cycles accumulated so far. */
    virtual uint64_t modelCycles() = 0;

    /**
     * Runs @p fn in the deployment's application context (inside the
     * app cubicle for cubicle-based deployments; plain call
     * otherwise). All database access must go through this.
     */
    virtual void enter(const std::function<void()> &fn) = 0;

    /** The System, for cubicle-based deployments (else nullptr). */
    virtual core::System *system() { return nullptr; }

    // --- factories ------------------------------------------------------

    /** SQLite directly on the host kernel (Fig. 10a "Linux"). */
    static std::unique_ptr<SqliteDeployment>
    makeLinux(std::size_t cache_pages = 256);

    /** Genode-style IPC on a kernel profile with 1 or 2 hops. */
    static std::unique_ptr<SqliteDeployment>
    makeMicrokernel(const KernelProfile &profile, int hops,
                    std::size_t cache_pages = 256);

    /**
     * Cubicle-based deployments.
     * @param components 3 (Fig. 9a: app | core | timer), 4 (Fig. 9b:
     *        RAMFS separated) or 7 (the full Fig. 8 deployment)
     * @param mode isolation mode; kUnikraft turns any of these into
     *        the unprotected Unikraft baseline
     */
    static std::unique_ptr<SqliteDeployment>
    makeCubicles(int components, core::IsolationMode mode,
                 std::size_t cache_pages = 256,
                 std::size_t num_pages = 32768);

  protected:
    explicit SqliteDeployment(std::string name) : name_(std::move(name))
    {}

  private:
    std::string name_;
};

} // namespace cubicleos::baselines

#endif // CUBICLEOS_BASELINES_DEPLOYMENTS_H_
