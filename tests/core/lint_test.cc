/**
 * @file
 * Tests for the isolation linter: every rule against hand-built wiring
 * snapshots, the pointer-signature detector, and the System-level
 * entry point.
 */

#include <gtest/gtest.h>

#include <typeinfo>

#include "audit/audit.h"
#include "core/system.h"
#include "tests/core/toy_components.h"

namespace cubicleos::core {
namespace {

using audit::LintFinding;
using audit::LintRule;
using audit::LintSeverity;
using audit::lintClean;
using audit::lintWiring;
using audit::signaturePassesPointers;

/** Mangled signatures of a pointer-taking and a pointer-free export. */
const char *const kTakesPointer = typeid(int(const void *, int)).name();
const char *const kTakesInts = typeid(int(int)).name();

/** Two isolated cubicles + one shared, correctly keyed. */
WiringSnapshot
baseSnapshot()
{
    WiringSnapshot snap;
    snap.sharedKey = 1;
    snap.cubicles = {
        {0, "fs", CubicleKind::kIsolated, 2},
        {1, "app", CubicleKind::kIsolated, 3},
        {2, "libc", CubicleKind::kShared, 1},
    };
    return snap;
}

bool
hasRule(const std::vector<LintFinding> &findings, LintRule rule)
{
    for (const auto &f : findings) {
        if (f.rule == rule)
            return true;
    }
    return false;
}

TEST(Lint, CleanWiringHasNoFindings)
{
    WiringSnapshot snap = baseSnapshot();
    // app's window grants fs — which satisfies fs's pointer export.
    snap.windows = {{0, 1, aclBit(0), 2, -1}};
    snap.exports = {{"read", 0, CubicleKind::kIsolated, kTakesPointer}};
    auto findings = lintWiring(snap);
    EXPECT_TRUE(findings.empty());
    EXPECT_TRUE(lintClean(findings));
}

TEST(Lint, IsolatedComponentWithSharedKeyIsAnError)
{
    WiringSnapshot snap = baseSnapshot();
    snap.cubicles[1].pkey = snap.sharedKey; // isolated 'app', shared key
    auto findings = lintWiring(snap);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, LintRule::kIsolatedUsesSharedKey);
    EXPECT_EQ(findings[0].severity, LintSeverity::kError);
    EXPECT_EQ(findings[0].cubicle, 1u);
    EXPECT_NE(findings[0].message.find("app"), std::string::npos);
    EXPECT_FALSE(lintClean(findings));
}

TEST(Lint, SharedCubicleWithSharedKeyIsFine)
{
    auto findings = lintWiring(baseSnapshot());
    EXPECT_TRUE(findings.empty());
}

TEST(Lint, GhostPeerGrantIsAnError)
{
    WiringSnapshot snap = baseSnapshot();
    // Grants cubicle 7, which does not exist (only 0..2 are loaded).
    snap.windows = {{0, 0, aclBit(1) | aclBit(7), 1, -1}};
    auto findings = lintWiring(snap);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, LintRule::kAclGhostPeer);
    EXPECT_EQ(findings[0].severity, LintSeverity::kError);
    EXPECT_EQ(findings[0].window, 0u);
    EXPECT_FALSE(lintClean(findings));
}

TEST(Lint, SelfGrantIsAWarning)
{
    WiringSnapshot snap = baseSnapshot();
    snap.windows = {{0, 0, aclBit(0) | aclBit(1), 1, -1}};
    auto findings = lintWiring(snap);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, LintRule::kAclSelfGrant);
    EXPECT_EQ(findings[0].severity, LintSeverity::kWarning);
    EXPECT_FALSE(lintClean(findings));
    EXPECT_TRUE(lintClean(findings, LintSeverity::kError));
}

TEST(Lint, OpenAclOverEmptyWindowIsInfo)
{
    WiringSnapshot snap = baseSnapshot();
    snap.windows = {{0, 0, aclBit(1), 0, -1}}; // open ACL, no ranges
    auto findings = lintWiring(snap);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, LintRule::kOpenWindowNoRanges);
    EXPECT_EQ(findings[0].severity, LintSeverity::kInfo);
    EXPECT_TRUE(lintClean(findings)); // info does not fail CI
}

TEST(Lint, StaleAclAfterAllRangesRemovedIsAWarning)
{
    WiringSnapshot snap = baseSnapshot();
    // Open ACL, zero live ranges, but three ranges existed once: the
    // ACL has outlived everything it ever covered.
    snap.windows = {{0, 0, aclBit(1), 0, -1, 3}};
    auto findings = lintWiring(snap);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, LintRule::kAclStaleGrant);
    EXPECT_EQ(findings[0].severity, LintSeverity::kWarning);
    EXPECT_EQ(findings[0].window, 0u);
    EXPECT_NE(findings[0].message.find("3"), std::string::npos);
    EXPECT_FALSE(lintClean(findings));
}

TEST(Lint, StaleAclSupersedesTheInfoFlavour)
{
    // The two empty-window rules are mutually exclusive per window.
    WiringSnapshot snap = baseSnapshot();
    snap.windows = {{0, 0, aclBit(1), 0, -1, 1},  // stale (had a range)
                    {1, 1, aclBit(0), 0, -1, 0}}; // odd (never had one)
    auto findings = lintWiring(snap);
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_TRUE(hasRule(findings, LintRule::kAclStaleGrant));
    EXPECT_TRUE(hasRule(findings, LintRule::kOpenWindowNoRanges));
}

TEST(Lint, LiveRangesOrClosedAclAreNotStale)
{
    WiringSnapshot snap = baseSnapshot();
    // Ranges still live → fine; ACL already closed → fine.
    snap.windows = {{0, 0, aclBit(1), 2, -1, 5},
                    {1, 1, 0, 0, -1, 5}};
    auto findings = lintWiring(snap);
    EXPECT_FALSE(hasRule(findings, LintRule::kAclStaleGrant));
    EXPECT_FALSE(hasRule(findings, LintRule::kOpenWindowNoRanges));
}

TEST(Lint, PointerExportWithoutAnyWindowIsInfo)
{
    WiringSnapshot snap = baseSnapshot();
    snap.exports = {
        {"write", 0, CubicleKind::kIsolated, kTakesPointer},
        {"stat", 0, CubicleKind::kIsolated, kTakesPointer}, // same owner
        {"sync", 1, CubicleKind::kIsolated, kTakesInts},
        {"memcpy", 2, CubicleKind::kShared, kTakesPointer}, // shared: exempt
    };
    auto findings = lintWiring(snap);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, LintRule::kPointerExportNoWindow);
    EXPECT_EQ(findings[0].severity, LintSeverity::kInfo);
    EXPECT_EQ(findings[0].cubicle, 0u);
}

TEST(Lint, PointerExportSatisfiedByAnyWindowGrant)
{
    WiringSnapshot snap = baseSnapshot();
    snap.exports = {{"write", 0, CubicleKind::kIsolated, kTakesPointer}};
    // app's window grants fs access to caller memory.
    snap.windows = {{0, 1, aclBit(0), 1, -1}};
    auto findings = lintWiring(snap);
    EXPECT_FALSE(hasRule(findings, LintRule::kPointerExportNoWindow));
}

TEST(Lint, FindingsAccumulateAcrossRules)
{
    WiringSnapshot snap = baseSnapshot();
    snap.cubicles[0].pkey = snap.sharedKey;
    snap.windows = {{0, 0, aclBit(0) | aclBit(9), 0, -1}};
    auto findings = lintWiring(snap);
    EXPECT_TRUE(hasRule(findings, LintRule::kIsolatedUsesSharedKey));
    EXPECT_TRUE(hasRule(findings, LintRule::kAclGhostPeer));
    EXPECT_TRUE(hasRule(findings, LintRule::kAclSelfGrant));
    EXPECT_TRUE(hasRule(findings, LintRule::kOpenWindowNoRanges));
    EXPECT_FALSE(lintClean(findings));
}

TEST(Lint, RuleAndSeverityNames)
{
    EXPECT_STREQ(audit::lintRuleName(LintRule::kAclGhostPeer),
                 "acl-ghost-peer");
    EXPECT_STREQ(audit::lintSeverityName(LintSeverity::kError), "error");
}

// ----------------------------------------------------------------------
// Pointer-signature detection (Itanium-mangled function types)
// ----------------------------------------------------------------------

struct Pager {}; // class name contains a capital P — must not confuse

TEST(Lint, SignaturePointerDetection)
{
    EXPECT_FALSE(signaturePassesPointers(nullptr));
    EXPECT_FALSE(signaturePassesPointers(typeid(int(int)).name()));
    EXPECT_FALSE(signaturePassesPointers(typeid(void()).name()));
    EXPECT_TRUE(signaturePassesPointers(typeid(int(void *)).name()));
    EXPECT_TRUE(signaturePassesPointers(
        typeid(int(const char *, int)).name()));
    EXPECT_TRUE(signaturePassesPointers(typeid(void *(int)).name()));
    // Identifier characters are skipped: 'Pager' must not read as a
    // pointer code, while a real Pager* must.
    EXPECT_FALSE(signaturePassesPointers(typeid(int(Pager)).name()));
    EXPECT_TRUE(signaturePassesPointers(typeid(int(Pager *)).name()));
}

// ----------------------------------------------------------------------
// System-level entry point
// ----------------------------------------------------------------------

TEST(LintSystem, WellWiredToySystemIsClean)
{
    System sys;
    auto &producer = testing::addToy(sys, "producer");
    testing::addToy(sys, "consumer");
    testing::addToy(sys, "util", CubicleKind::kShared);
    producer.onInit([](testing::ToyComponent &self) {
        System &s = *self.sys();
        void *buf = s.heapAlloc(256);
        const Wid wid = s.windowInit();
        s.windowAdd(wid, buf, 256);
        s.windowOpen(wid, s.cidOf("consumer"));
    });
    sys.boot();

    auto findings = audit::lint(sys);
    EXPECT_TRUE(lintClean(findings));
}

TEST(LintSystem, FlagsOverBroadAclAtRuntime)
{
    System sys;
    auto &producer = testing::addToy(sys, "producer");
    producer.onInit([](testing::ToyComponent &self) {
        System &s = *self.sys();
        void *buf = s.heapAlloc(64);
        const Wid wid = s.windowInit();
        s.windowAdd(wid, buf, 64);
        // Over-broad: grants itself and a cubicle that never loaded.
        s.windowOpen(wid, self.self());
        s.windowOpen(wid, 9);
    });
    sys.boot();

    auto findings = audit::lint(sys);
    EXPECT_TRUE(hasRule(findings, LintRule::kAclSelfGrant));
    EXPECT_TRUE(hasRule(findings, LintRule::kAclGhostPeer));
    EXPECT_FALSE(lintClean(findings));
}

TEST(LintSystem, StaleAclFlaggedAfterAddRemoveCycle)
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
        // The range goes away, the grant stays behind.
        s.windowRemove(wid, buf);
    });
    sys.boot();

    auto findings = audit::lint(sys);
    EXPECT_TRUE(hasRule(findings, LintRule::kAclStaleGrant));
    EXPECT_FALSE(hasRule(findings, LintRule::kOpenWindowNoRanges));
    EXPECT_FALSE(lintClean(findings));
}

TEST(LintSystem, RecycledWindowSlotStartsWithFreshHistory)
{
    System sys;
    auto &producer = testing::addToy(sys, "producer");
    testing::addToy(sys, "consumer");
    producer.onInit([](testing::ToyComponent &self) {
        System &s = *self.sys();
        void *buf = s.heapAlloc(128);
        // First lifetime: add a range, then destroy the window.
        const Wid first = s.windowInit();
        s.windowAdd(first, buf, 128);
        s.windowDestroy(first);
        // Second lifetime reuses the slot; its ACL never covered a
        // range in *this* lifetime, so it must lint as the info
        // flavour, not as stale.
        const Wid second = s.windowInit();
        ASSERT_EQ(second, first);
        s.windowOpen(second, s.cidOf("consumer"));
    });
    sys.boot();

    auto findings = audit::lint(sys);
    EXPECT_TRUE(hasRule(findings, LintRule::kOpenWindowNoRanges));
    EXPECT_FALSE(hasRule(findings, LintRule::kAclStaleGrant));
}

TEST(LintSystem, SnapshotReflectsExportsAndWindows)
{
    System sys;
    auto &fs = testing::addToy(sys, "fs");
    fs.onExports([](Exporter &exp, testing::ToyComponent &) {
        exp.fn<int(const char *)>("open", [](const char *) { return 3; });
        exp.fn<int(int)>("close", [](int) { return 0; });
    });
    sys.boot();

    auto snap = sys.wiringSnapshot();
    ASSERT_EQ(snap.cubicles.size(), 1u);
    EXPECT_EQ(snap.cubicles[0].name, "fs");
    ASSERT_EQ(snap.exports.size(), 2u);
    EXPECT_EQ(snap.exports[0].sigName, typeid(int(const char *)).name());
    EXPECT_EQ(snap.exports[1].sigName, typeid(int(int)).name());
    EXPECT_TRUE(snap.windows.empty());
}

} // namespace
} // namespace cubicleos::core
