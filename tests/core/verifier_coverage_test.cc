/**
 * @file
 * Decode-coverage regression floor: the auditor's length decoder must
 * cover at least 99.5% of every in-tree component image. A new menu
 * entry in makeBenignImage, or a decoder regression, that leaves gaps
 * in the sweep fails here before it blinds the audit (a reachable gap
 * makes the walk opaque, so it proves nothing dead).
 */

#include <gtest/gtest.h>

#include "apps/httpd/harness.h"
#include "audit/audit.h"
#include "baselines/deployments.h"
#include "core/system.h"

namespace cubicleos {
namespace {

constexpr double kCoverageFloor = 0.995;

void
expectFloor(core::System &sys)
{
    const std::size_t count = sys.monitor().cubicleCount();
    ASSERT_GT(count, 0u);
    for (core::Cid cid = 0; cid < count; ++cid) {
        const audit::VerifierReport report = audit::imageReport(sys, cid);
        EXPECT_GE(report.decodeCoverage(), kCoverageFloor)
            << "cubicle " << cid << " ('"
            << sys.monitor().cubicle(cid).name << "'): "
            << report.undecodableBytes << " undecodable of "
            << report.imageBytes << " bytes, first gap at offset "
            << report.firstUndecodable;
        EXPECT_EQ(report.undecodableBytes, 0u) << cid;
        EXPECT_TRUE(report.cfg.ran) << cid;
        EXPECT_FALSE(report.cfg.opaque) << cid;
    }
}

TEST(VerifierCoverage, NginxDeploymentImagesFullyDecoded)
{
    httpd::HttpHarness harness(core::IsolationMode::kFull);
    expectFloor(harness.sys());
}

TEST(VerifierCoverage, SqliteDeploymentImagesFullyDecoded)
{
    auto deployment = baselines::SqliteDeployment::makeCubicles(
        7, core::IsolationMode::kFull);
    ASSERT_NE(deployment->system(), nullptr);
    expectFloor(*deployment->system());
}

} // namespace
} // namespace cubicleos
