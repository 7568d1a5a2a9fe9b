/**
 * @file
 * Speedtest workload tests: the full suite completes with consistent
 * results on the direct substrate, and a short run works end-to-end
 * over the CubicleOS deployment.
 */

#include <gtest/gtest.h>

#include "apps/minisql/speedtest.h"
#include "baselines/memfs.h"
#include "libos/app.h"
#include "libos/stack.h"
#include "libos/ukapi.h"

namespace cubicleos::minisql {
namespace {

TEST(Speedtest, FullSuiteRunsCleanOnMemFs)
{
    baselines::MemFileApi fs;
    Database db(&fs, "/bench.db", 128);
    ASSERT_EQ(db.open(), 0);
    Speedtest bench(&db, /*scale=*/200);

    for (int id : Speedtest::queryIds()) {
        SCOPED_TRACE("query " + std::to_string(id));
        SpeedtestResult res;
        ASSERT_NO_THROW(res = bench.run(id));
        EXPECT_EQ(res.id, id);
    }
    // Final integrity check doubles as a structural audit.
    auto rs = db.exec("PRAGMA integrity_check");
    EXPECT_EQ(rs.rows[0][0].asText(), "ok");
}

TEST(Speedtest, QueryIdsMatchFigureSix)
{
    const auto &ids = Speedtest::queryIds();
    EXPECT_EQ(ids.size(), 31u);
    EXPECT_EQ(ids.front(), 100);
    EXPECT_EQ(ids.back(), 990);
    // Spot-check the distinctive IDs from the paper's x-axis.
    for (int id : {142, 145, 161, 310, 980}) {
        EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end())
            << id;
    }
}

TEST(Speedtest, DeterministicAcrossRuns)
{
    auto run = [](std::vector<uint64_t> *rows) {
        baselines::MemFileApi fs;
        Database db(&fs, "/bench.db", 128);
        ASSERT_EQ(db.open(), 0);
        Speedtest bench(&db, 100, /*seed=*/42);
        for (int id : Speedtest::queryIds())
            rows->push_back(bench.run(id).rowsTouched);
    };
    std::vector<uint64_t> first, second;
    run(&first);
    run(&second);
    EXPECT_EQ(first, second);
}

TEST(Speedtest, ShortRunOverCubicleOs)
{
    core::SystemConfig cfg;
    cfg.numPages = 16384;
    core::System sys(cfg);
    libos::addLibosComponents(sys);
    auto *app = static_cast<libos::AppComponent *>(
        &sys.addComponent(std::make_unique<libos::AppComponent>(
            "sqlite")));
    libos::finishBoot(sys);

    app->run([&] {
        libos::CubicleFileApi fs(sys, "ramfs");
        DbAllocator mem;
        mem.alloc = [&](std::size_t n) { return sys.heapAlloc(n); };
        mem.free = [&](void *p) { sys.heapFree(p); };
        Database db(&fs, "/bench.db", 64, mem);
        ASSERT_EQ(db.open(), 0);
        Speedtest bench(&db, 50);
        for (int id : {100, 110, 120, 130, 150, 160, 180, 980})
            ASSERT_NO_THROW(bench.run(id)) << id;
    });

    // The run exercised the Fig. 8 topology.
    const auto sqlite = sys.cidOf("sqlite");
    const auto vfs = sys.cidOf("vfscore");
    const auto ramfs = sys.cidOf("ramfs");
    EXPECT_GT(sys.stats().callsOnEdge(sqlite, vfs), 50u);
    EXPECT_GT(sys.stats().callsOnEdge(vfs, ramfs), 50u);
    // Each pager I/O retags its buffer to RAMFS before the call and
    // back to SQLite after it, with no trap in between.
    EXPECT_GT(sys.stats().prestages(), 10u);
    EXPECT_GT(sys.stats().handBacks(), 10u);
}

} // namespace
} // namespace cubicleos::minisql
