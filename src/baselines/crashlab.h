/**
 * @file
 * Crash lab: the fault-injection deployment for the lifecycle
 * subsystem (DESIGN.md §15).
 *
 * Boots the networked Fig. 5 stack (LWIP, VFSCORE, RAMFS, NGINX, ...)
 * plus a minisql database cubicle sharing the same RAMFS, then lets a
 * test kill and hot-restart individual cubicles while the rest of the
 * deployment keeps serving:
 *
 *  - killMinisql()/restartMinisql(): the database cubicle crashes and
 *    relaunches; HTTP traffic through the untouched stack must not
 *    notice. A query in flight on another thread unwinds with
 *    PeerFault; the next open() after restart rolls back the hot
 *    journal (the pager's crash recovery).
 *  - killLwip(): the network stack dies under the application; every
 *    socket call degrades to kNetPeerFault and nginx drops the
 *    affected connections instead of crashing.
 */

#ifndef CUBICLEOS_BASELINES_CRASHLAB_H_
#define CUBICLEOS_BASELINES_CRASHLAB_H_

#include <memory>
#include <string>

#include "apps/httpd/harness.h"
#include "apps/minisql/db.h"
#include "builder/image.h"
#include "core/system.h"
#include "libos/ukapi.h"

namespace cubicleos::baselines {

/**
 * The minisql application cubicle: owns a Database over the shared
 * RAMFS backend. Restartable — teardown() abandons the pre-crash
 * pager/window handles (the monitor already reclaimed their cubicle
 * side) and init() reopens the database file, which triggers the
 * pager's hot-journal rollback when the crash interrupted a
 * transaction.
 */
class SqlComponent : public core::Component {
  public:
    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = "minisql";
        s.kind = core::CubicleKind::kIsolated;
        s.image = builder::componentImage(builder::ImageSeed::kApp);
        s.stackPages = 32;
        return s;
    }

    void registerExports(core::Exporter &) override {}

    void init() override;
    void teardown() override;

    /**
     * Builds the file binding and opens /crash.db; must run inside
     * this cubicle. Called by the harness once the boot component has
     * mounted the root (it inits after the applications), and by
     * init() itself on every restart — where the deployment is fully
     * up and service must resume without outside help.
     */
    void openDb();

    /** Orderly close (flush + close); must run inside this cubicle. */
    void shutdown()
    {
        db_.reset();
        fs_.reset();
    }

    /**
     * Harness-destruction path for a cubicle that died and was never
     * restarted: the handles cannot be closed (their cubicle is gone)
     * and the buffers cannot be freed (freeing would have to enter
     * it), so the host-side objects are deliberately leaked.
     */
    void abandonDead() noexcept
    {
        (void)db_.release();
        (void)fs_.release();
    }

    /** The database; access only from inside this cubicle (runAs). */
    minisql::Database &db() { return *db_; }

  private:
    std::unique_ptr<libos::CubicleFileApi> fs_;
    std::unique_ptr<minisql::Database> db_;
};

/**
 * Boots the crash-lab deployment and drives it: the single-server
 * HttpHarness deployment plus the minisql cubicle, with SQL queries
 * inside it and kill/restart controls for fault injection.
 */
class CrashLabHarness : public httpd::HttpHarness {
  public:
    explicit CrashLabHarness(
        core::IsolationMode mode = core::IsolationMode::kFull);
    ~CrashLabHarness();

    /**
     * Executes @p sql inside the minisql cubicle. When the cubicle is
     * destroyed mid-query this propagates the unwind (core::PeerFault
     * or a minisql::SqlError from a failed I/O) to the caller — tests
     * catch it on the victim thread.
     */
    minisql::ResultSet exec(const std::string &sql);

    /** Destroys the minisql cubicle. @return pages reclaimed. */
    std::size_t killMinisql() { return sys().destroyComponent("minisql"); }
    /** Hot-restarts the minisql cubicle (reopen → journal recovery). */
    void restartMinisql() { sys().restartComponent("minisql"); }
    /** Destroys the network-stack cubicle under the application. */
    std::size_t killLwip() { return sys().destroyComponent("lwip"); }

  private:
    core::Cid sqlCid_;
    SqlComponent *sql_;
};

} // namespace cubicleos::baselines

#endif // CUBICLEOS_BASELINES_CRASHLAB_H_
