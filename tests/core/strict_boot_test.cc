/**
 * @file
 * Tests for the strict gate, audit::requireClean: a caller that wants
 * strict boot lints the wired system after boot() and refuses to hand
 * over a deployment with warning-or-worse findings; after a hot
 * restart it gates on the restarted cubicle's findings only.
 */

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "core/system.h"
#include "tests/core/toy_components.h"

namespace cubicleos::core {
namespace {

/** boot() followed by the strict gate over the syntactic rules. */
void
strictBoot(System &sys)
{
    sys.boot();
    audit::requireClean(audit::lint(sys));
}

/** producer shares a buffer with consumer — textbook wiring. */
void
wireCleanly(System &sys)
{
    auto &producer = testing::addToy(sys, "producer");
    testing::addToy(sys, "consumer");
    producer.onInit([](testing::ToyComponent &self) {
        System &s = *self.sys();
        void *buf = s.heapAlloc(256);
        const Wid wid = s.windowInit();
        s.windowAdd(wid, buf, 256);
        s.windowOpen(wid, s.cidOf("consumer"));
    });
}

/** An init that grants its own window to itself — a warning. */
void
selfGrant(testing::ToyComponent &self)
{
    System &s = *self.sys();
    void *buf = s.heapAlloc(256);
    const Wid wid = s.windowInit();
    s.windowAdd(wid, buf, 256);
    s.windowOpen(wid, self.self());
}

/** producer grants itself — a warning-severity self-grant. */
void
wireWithSelfGrant(System &sys)
{
    testing::addToy(sys, "producer").onInit(selfGrant);
    testing::addToy(sys, "consumer");
}

TEST(StrictBoot, WellWiredSystemBoots)
{
    System sys;
    wireCleanly(sys);
    EXPECT_NO_THROW(strictBoot(sys));
}

TEST(StrictBoot, RefusesMisWiredSystem)
{
    System sys;
    wireWithSelfGrant(sys);
    try {
        strictBoot(sys);
        FAIL() << "strict boot accepted a mis-wired system";
    } catch (const LoaderError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("strict verify"), std::string::npos);
        EXPECT_NE(what.find("acl-self-grant"), std::string::npos);
        EXPECT_NE(what.find("warning"), std::string::npos);
    }
}

TEST(StrictBoot, RefusesGhostPeerGrant)
{
    System sys;
    auto &producer = testing::addToy(sys, "producer");
    producer.onInit([](testing::ToyComponent &self) {
        System &s = *self.sys();
        void *buf = s.heapAlloc(64);
        const Wid wid = s.windowInit();
        s.windowAdd(wid, buf, 64);
        // Grants a cubicle id that was never loaded.
        s.windowOpen(wid, 9);
    });
    try {
        strictBoot(sys);
        FAIL() << "strict boot accepted a ghost-peer grant";
    } catch (const LoaderError &e) {
        EXPECT_NE(std::string(e.what()).find("acl-ghost-peer"),
                  std::string::npos);
    }
}

TEST(StrictBoot, RefusesStaleAclLeftByInit)
{
    System sys;
    auto &producer = testing::addToy(sys, "producer");
    testing::addToy(sys, "consumer");
    producer.onInit([](testing::ToyComponent &self) {
        System &s = *self.sys();
        void *buf = s.heapAlloc(128);
        const Wid wid = s.windowInit();
        s.windowAdd(wid, buf, 128);
        s.windowOpen(wid, s.cidOf("consumer"));
        s.windowRemove(wid, buf); // grant outlives the range
    });
    try {
        strictBoot(sys);
        FAIL() << "strict boot accepted a stale ACL";
    } catch (const LoaderError &e) {
        EXPECT_NE(std::string(e.what()).find("acl-stale-grant"),
                  std::string::npos);
    }
}

TEST(StrictBoot, InfoFindingsDoNotBlockBoot)
{
    // A pointer-taking export with no window anywhere is info-severity:
    // the strict gate tolerates it.
    System sys;
    auto &fs = testing::addToy(sys, "fs");
    fs.onExports([](Exporter &exp, testing::ToyComponent &) {
        exp.fn<int(const char *)>("open", [](const char *) { return 3; });
    });
    EXPECT_NO_THROW(strictBoot(sys));
}

TEST(StrictBoot, DefaultModeToleratesMisWiring)
{
    // The same mis-wired deployment boots without the gate; the
    // findings surface only through an explicit lint call.
    System sys;
    wireWithSelfGrant(sys);
    EXPECT_NO_THROW(sys.boot());
    EXPECT_FALSE(audit::lintClean(audit::lint(sys)));
}

TEST(StrictBoot, RestartGateRefusesSelfGrantLeftByRestartedInit)
{
    System sys;
    auto &producer = testing::addToy(sys, "producer");
    testing::addToy(sys, "consumer");
    strictBoot(sys);

    // The relaunched producer's init leaves a self-grant behind.
    producer.onInit(selfGrant);
    sys.destroyComponent("producer");
    sys.restartComponent("producer");
    try {
        audit::requireClean(audit::lint(sys), sys.cidOf("producer"));
        FAIL() << "restart gate accepted a self-grant";
    } catch (const LoaderError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("strict verify"), std::string::npos);
        EXPECT_NE(what.find("acl-self-grant"), std::string::npos);
        EXPECT_NE(what.find("producer"), std::string::npos);
    }
}

TEST(StrictBoot, RestartGateIgnoresOtherCubiclesWarnings)
{
    System sys;
    wireWithSelfGrant(sys);
    sys.boot();
    // The deployment-wide gate refuses producer's self-grant...
    EXPECT_THROW(audit::requireClean(audit::lint(sys)), LoaderError);

    // ...but a restarted consumer re-earns only its own gate.
    sys.destroyComponent("consumer");
    sys.restartComponent("consumer");
    EXPECT_NO_THROW(
        audit::requireClean(audit::lint(sys), sys.cidOf("consumer")));
}

} // namespace
} // namespace cubicleos::core
