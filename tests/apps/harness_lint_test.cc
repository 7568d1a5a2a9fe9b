/**
 * @file
 * Isolation-lint integration: the shipped NGINX and SQLite deployments
 * must lint clean (no warning-or-worse finding) after boot and after
 * real traffic has opened their windows.
 */

#include <gtest/gtest.h>

#include "apps/httpd/harness.h"
#include "audit/audit.h"
#include "baselines/deployments.h"

namespace cubicleos {
namespace {

using audit::formatFindings;
using audit::lintClean;

TEST(HarnessLint, NginxDeploymentLintsClean)
{
    httpd::HttpHarness harness(core::IsolationMode::kFull);
    harness.createFile("/index.html", 512);

    auto atBoot = audit::lint(harness.sys());
    EXPECT_TRUE(lintClean(atBoot)) << formatFindings(atBoot);

    // Serve a request so the I/O windows carry live buffer grants.
    auto result = harness.fetch("/index.html");
    ASSERT_EQ(result.status, 200);

    auto afterTraffic = audit::lint(harness.sys());
    EXPECT_TRUE(lintClean(afterTraffic)) << formatFindings(afterTraffic);
}

TEST(HarnessLint, SqliteFullDeploymentLintsClean)
{
    auto deployment = baselines::SqliteDeployment::makeCubicles(
        7, core::IsolationMode::kFull);
    ASSERT_NE(deployment->system(), nullptr);

    deployment->enter([&] {
        auto &db = deployment->database();
        db.exec("CREATE TABLE t (id INTEGER, name TEXT)");
        db.exec("INSERT INTO t VALUES (1, 'a')");
        db.exec("SELECT * FROM t");
    });

    auto findings = audit::lint(*deployment->system());
    EXPECT_TRUE(lintClean(findings)) << formatFindings(findings);

    // The loader verified every cubicle image on the way in.
    const core::Stats &stats = deployment->system()->stats();
    EXPECT_GE(stats.verifyCacheHits() + stats.verifyCacheMisses(), 7u);
}

} // namespace
} // namespace cubicleos
