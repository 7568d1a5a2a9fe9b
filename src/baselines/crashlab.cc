#include "baselines/crashlab.h"

namespace cubicleos::baselines {

void
SqlComponent::init()
{
    // At first boot the root is not yet mounted (the boot component
    // inits last; see the CubicleDeployment pattern) — the harness
    // calls openDb() right after boot. A restart happens on a fully
    // booted deployment, so there init itself restores service.
    if (sys()->monitor().lifeGeneration(self()) > 0)
        openDb();
}

void
SqlComponent::openDb()
{
    fs_ = std::make_unique<libos::CubicleFileApi>(*sys(), "ramfs");
    // I/O buffers live in this cubicle's heap so every page move runs
    // through the window machinery (and so a crash orphans them into
    // the monitor's reclaim sweep, not the host allocator).
    minisql::DbAllocator mem;
    core::System *s = sys();
    mem.alloc = [s](std::size_t n) { return s->heapAlloc(n); };
    mem.free = [s](void *p) { s->heapFree(p); };
    db_ = std::make_unique<minisql::Database>(fs_.get(), "/crash.db",
                                              /*cache_pages=*/64, mem);
    if (const int rc = db_->open(/*create=*/true); rc != 0)
        throw core::LoaderError("minisql: cannot open /crash.db: rc=" +
                                std::to_string(rc));
}

void
SqlComponent::teardown()
{
    // The monitor already reclaimed the crashed cubicle's pages and
    // windows; the fds and window ids these objects remember are stale
    // (possibly reissued). Abandon instead of closing or flushing —
    // the destructors then only free buffers, and those stale heap
    // pointers the fresh allocator ignores. A hot journal left on the
    // (surviving) RAMFS is deliberately NOT touched: the init() reopen
    // rolls it back, which IS the crash recovery under test.
    if (db_)
        db_->pager().abandon();
    db_.reset();
    if (fs_)
        fs_->abandon();
    fs_.reset();
}

CrashLabHarness::CrashLabHarness(core::IsolationMode mode)
    : HttpHarness(mode, 32768, kRequestBaseCycles, /*sendfile=*/false,
                  /*tenants=*/0, std::make_unique<SqlComponent>()),
      sqlCid_(sys().cidOf("minisql")),
      sql_(static_cast<SqlComponent *>(&sys().componentAt(sqlCid_)))
{
    sys().runAs(sqlCid_, [&] { sql_->openDb(); });
}

CrashLabHarness::~CrashLabHarness()
{
    // The database must be closed from inside its cubicle: ~Pager
    // flushes through cross-calls, which the host context (and a dead
    // cubicle) cannot make. Mirrors CubicleDeployment's destructor.
    if (sys().monitor().cubicleAlive(sqlCid_))
        sys().runAs(sqlCid_, [&] { sql_->shutdown(); });
    else
        sql_->abandonDead();
}

minisql::ResultSet
CrashLabHarness::exec(const std::string &sql)
{
    minisql::ResultSet out;
    sys().runAs(sqlCid_, [&] { out = sql_->db().exec(sql); });
    return out;
}

} // namespace cubicleos::baselines
