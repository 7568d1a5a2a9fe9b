/**
 * @file
 * Whole-deployment isolation auditor tests: pass 3 of the auditor's
 * reachability walk (interprocedural resolution of indirect flow) over
 * loaded images, next to the loader's grep verdict on the same images,
 * the least-privilege dataflow audit behind the strict gate after
 * boot, and the machine-readable JSON report diffed against a
 * committed baseline.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <vector>

#include "apps/httpd/harness.h"
#include "apps/minisql/speedtest.h"
#include "audit/audit.h"
#include "baselines/deployments.h"
#include "core/system.h"
#include "audit/ipcfg.h"
#include "tests/core/toy_components.h"

namespace cubicleos::core {
namespace {

using testing::ToyComponent;
using testing::addToy;

// ----------------------------------------------------------------------
// Image builders: the codescan case-12 bounded-switch dispatch idiom
// and small hand-laid images around it. The table always starts at
// offset 22 (cmp 4 + ja 2 + lea 7 + movsxd 4 + add 3 + jmp 2).
// ----------------------------------------------------------------------

constexpr std::size_t kTableBase = 22;

/**
 * cmp rax,bound; ja +jaDisp; lea rcx,[rip+9]; movsxd rdx,[rcx+rax*4];
 * add rcx,rdx; jmp rcx; then the table: one LE32 entry per element of
 * @p entries, each relative to the table base at offset 22.
 */
std::vector<uint8_t>
jumpTableIdiom(const std::vector<int32_t> &entries, uint8_t jaDisp)
{
    const auto bound = static_cast<uint8_t>(entries.size() - 1);
    std::vector<uint8_t> img = {
        0x48, 0x83, 0xF8, bound,             // cmp rax, bound
        0x77, jaDisp,                        // ja default
        0x48, 0x8D, 0x0D, 0x09, 0, 0, 0,     // lea rcx, [rip+9]
        0x48, 0x63, 0x14, 0x81,              // movsxd rdx, [rcx+rax*4]
        0x48, 0x01, 0xD1,                    // add rcx, rdx
        0xFF, 0xE1,                          // jmp rcx
    };
    for (const int32_t e : entries) {
        for (int b = 0; b < 4; ++b)
            img.push_back(static_cast<uint8_t>(
                (static_cast<uint32_t>(e) >> (8 * b)) & 0xFF));
    }
    return img;
}

const std::vector<uint8_t> kWrpkru = {0x0F, 0x01, 0xEF};

void
append(std::vector<uint8_t> &img, const std::vector<uint8_t> &tail)
{
    img.insert(img.end(), tail.begin(), tail.end());
}

/** Dispatch over two entries; entry 0 lands on wrpkru at offset 31. */
std::vector<uint8_t>
maliciousJumpTableImage()
{
    // ja default → offset 30 (disp 24 from the ja fall-through at 6).
    std::vector<uint8_t> img = jumpTableIdiom({9, 12}, 24);
    img.push_back(0xC3);   // 30: ja default target
    append(img, kWrpkru);  // 31: entry 0 target (22 + 9)
    img.push_back(0xC3);   // 34: entry 1 target (22 + 12)
    return img;
}

/** Same shape, both entries land on plain rets. */
std::vector<uint8_t>
cleanJumpTableImage()
{
    std::vector<uint8_t> img = jumpTableIdiom({8, 12}, 24);
    img.push_back(0xC3); // 30: entry 0 target and ja default
    img.push_back(0x90); // 31..33: sled
    img.push_back(0x90);
    img.push_back(0x90);
    img.push_back(0xC3); // 34: entry 1 target
    return img;
}

/** lea rax,[rip+3]; call rax; ret — the callee starts at offset 10. */
std::vector<uint8_t>
leaCallImage(const std::vector<uint8_t> &callee)
{
    std::vector<uint8_t> img = {
        0x48, 0x8D, 0x05, 0x03, 0, 0, 0, // lea rax, [rip+3] → 10
        0xFF, 0xD0,                      // call rax
        0xC3,                            // ret
    };
    img.reserve(img.size() + callee.size());
    append(img, callee); // offset 10
    return img;
}

SystemConfig
toyConfig()
{
    SystemConfig cfg;
    cfg.numPages = 2048;
    return cfg;
}

// ----------------------------------------------------------------------
// Pass 3 over loaded images: the loader refuses every forbidden byte
// sequence, and the walk over the image the loader was handed
// (audit::imageReport) records how each indirect site resolves.
// ----------------------------------------------------------------------

TEST(VerifierPass3, JumpTableReachingForbiddenInsnRejectsAtLoad)
{
    System sys(toyConfig());
    addToy(sys, "switcher")
        .withImage(maliciousJumpTableImage())
        .withEntryPoints({0});
    try {
        sys.boot();
        FAIL() << "loader accepted a jump table dispatching to wrpkru";
    } catch (const VerifierError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("switcher"), std::string::npos) << what;
        EXPECT_NE(what.find("wrpkru"), std::string::npos) << what;
    }
}

TEST(VerifierPass3, CleanJumpTableResolvesAndLoads)
{
    System sys(toyConfig());
    addToy(sys, "switcher")
        .withImage(cleanJumpTableImage())
        .withEntryPoints({0});
    ASSERT_NO_THROW(sys.boot());

    const audit::VerifierReport report =
        audit::imageReport(sys, sys.cidOf("switcher"));
    ASSERT_TRUE(report.audit.ran);
    EXPECT_EQ(report.audit.unresolvedSites, 0u);
    ASSERT_GE(report.audit.resolvedSites, 1u);
    ASSERT_EQ(report.audit.indirectSites.size(), 1u);
    const audit::IndirectSiteRecord &site = report.audit.indirectSites[0];
    EXPECT_TRUE(site.isJump);
    EXPECT_TRUE(site.resolved);
    EXPECT_STREQ(site.how, "jump-table");
    EXPECT_EQ(site.tableBase, kTableBase);
    EXPECT_EQ(site.targets, (std::vector<std::size_t>{30, 34}));
    // The 8 table bytes count as identified data, not undecoded gap.
    EXPECT_EQ(report.audit.tableBytes, 8u);
}

TEST(VerifierPass3, UnresolvedIndirectJumpWithForbiddenBytesRejects)
{
    // jmp rax at the entry point stays opaque; no followed edge
    // reaches the wrpkru behind it, but the walk cannot prove the jump
    // misses it.
    std::vector<uint8_t> img = {0xFF, 0xE0}; // jmp rax
    append(img, kWrpkru);
    img.push_back(0xC3);

    System sys(toyConfig());
    addToy(sys, "opaque").withImage(img).withEntryPoints({0});
    try {
        sys.boot();
        FAIL() << "loader accepted forbidden bytes behind an unresolved "
                  "indirect jump";
    } catch (const VerifierError &e) {
        EXPECT_NE(std::string(e.what()).find("'wrpkru' at offset 2"),
                  std::string::npos)
            << e.what();
    }

    // The walk labels the bytes: not reached, but not provably dead.
    const std::size_t entries[] = {0};
    const audit::VerifierReport report =
        audit::verifyImageInter(img, entries, {});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].cls,
              audit::FindingClass::kIndirectReachable);
}

TEST(VerifierPass3, UnresolvedIndirectJumpWithoutForbiddenBytesLoads)
{
    // The same opacity with nothing forbidden in the image is
    // tolerated — but counted and listed, never silently ignored.
    System sys(toyConfig());
    addToy(sys, "opaque")
        .withImage({0xFF, 0xE0, 0xC3})
        .withEntryPoints({0});
    ASSERT_NO_THROW(sys.boot());

    const audit::VerifierReport report =
        audit::imageReport(sys, sys.cidOf("opaque"));
    ASSERT_TRUE(report.audit.ran);
    EXPECT_EQ(report.audit.unresolvedSites, 1u);
    ASSERT_EQ(report.audit.indirectSites.size(), 1u);
    EXPECT_TRUE(report.audit.indirectSites[0].isJump);
    EXPECT_FALSE(report.audit.indirectSites[0].resolved);
    EXPECT_STREQ(report.audit.indirectSites[0].how, "");
}

TEST(VerifierPass3, LeaCallSingletonReachingForbiddenInsnRejects)
{
    std::vector<uint8_t> callee = kWrpkru;
    callee.push_back(0xC3);
    System sys(toyConfig());
    addToy(sys, "caller")
        .withImage(leaCallImage(callee))
        .withEntryPoints({0});
    EXPECT_THROW(sys.boot(), VerifierError);
}

TEST(VerifierPass3, LeaCallSingletonResolves)
{
    System sys(toyConfig());
    addToy(sys, "caller")
        .withImage(leaCallImage({0xC3}))
        .withEntryPoints({0});
    ASSERT_NO_THROW(sys.boot());

    const audit::VerifierReport report =
        audit::imageReport(sys, sys.cidOf("caller"));
    ASSERT_TRUE(report.audit.ran);
    EXPECT_EQ(report.audit.unresolvedSites, 0u);
    ASSERT_EQ(report.audit.indirectSites.size(), 1u);
    EXPECT_STREQ(report.audit.indirectSites[0].how, "lea-call");
    EXPECT_EQ(report.audit.indirectSites[0].targets,
              (std::vector<std::size_t>{10}));
}

TEST(VerifierPass3, EntryTableResolvesIndirectCalls)
{
    // call rax; ret; callee at 3; pad; table of one absolute image
    // offset at 8 — the builder's declared address-taken set.
    const std::vector<uint8_t> img = {
        0xFF, 0xD0,             // 0: call rax
        0xC3,                   // 2: ret
        0x90, 0xC3,             // 3: callee
        0x90, 0x90, 0x90,       // 5..7: pad to the table
        0x03, 0x00, 0x00, 0x00, // 8: table entry → offset 3
    };
    System sys(toyConfig());
    addToy(sys, "plugin")
        .withImage(img)
        .withEntryPoints({0})
        .withIndirectTables({{8, 1}});
    ASSERT_NO_THROW(sys.boot());

    const audit::VerifierReport report =
        audit::imageReport(sys, sys.cidOf("plugin"));
    ASSERT_TRUE(report.audit.ran);
    EXPECT_EQ(report.audit.unresolvedSites, 0u);
    ASSERT_EQ(report.audit.indirectSites.size(), 1u);
    EXPECT_STREQ(report.audit.indirectSites[0].how, "entry-table");
    EXPECT_EQ(report.audit.indirectSites[0].targets,
              (std::vector<std::size_t>{3}));
}

TEST(VerifierPass3, EntryTableDeclaringForbiddenTargetRejects)
{
    const std::vector<uint8_t> img = {
        0xFF, 0xD0,             // 0: call rax
        0xC3,                   // 2: ret
        0x0F, 0x01, 0xEF,       // 3: wrpkru — the declared target
        0xC3,                   // 6: ret
        0x90,                   // 7: pad
        0x03, 0x00, 0x00, 0x00, // 8: table entry → offset 3
    };
    System sys(toyConfig());
    addToy(sys, "plugin")
        .withImage(img)
        .withEntryPoints({0})
        .withIndirectTables({{8, 1}});
    EXPECT_THROW(sys.boot(), VerifierError);
}

TEST(VerifierPass3, UndeclaredIndirectCallStaysTrustedButCounted)
{
    // Without the table the call is CFI-trusted (fall-through kept),
    // so the image loads — but the residual opacity is
    // recorded, not hidden.
    const std::vector<uint8_t> img = {0xFF, 0xD0, 0xC3};
    System sys(toyConfig());
    addToy(sys, "plugin").withImage(img).withEntryPoints({0});
    ASSERT_NO_THROW(sys.boot());

    const audit::VerifierReport report =
        audit::imageReport(sys, sys.cidOf("plugin"));
    EXPECT_EQ(report.audit.unresolvedSites, 1u);
    ASSERT_EQ(report.audit.indirectSites.size(), 1u);
    EXPECT_FALSE(report.audit.indirectSites[0].isJump);
    EXPECT_FALSE(report.audit.indirectSites[0].resolved);
}

TEST(VerifierPass3, UnresolvedSitesChargedToTheirFunction)
{
    // The entry function holds one naked indirect call, its direct
    // callee at offset 8 holds three: each site is charged to the
    // function whose walk reached it.
    const std::vector<uint8_t> img = {
        0xE8, 0x03, 0x00, 0x00, 0x00, // 0: call → 8
        0xFF, 0xD0,                   // 5: call rax
        0xC3,                         // 7: ret
        0xFF, 0xD0,                   // 8: call rax
        0xFF, 0xD1,                   // 10: call rcx
        0xFF, 0xD2,                   // 12: call rdx
        0xC3,                         // 14: ret
    };
    const std::size_t entries[] = {0};
    const audit::VerifierReport report =
        audit::verifyImageInter(img, entries, {});
    EXPECT_TRUE(report.accepted());
    EXPECT_EQ(report.audit.unresolvedSites, 4u);
    ASSERT_EQ(report.audit.functions.size(), 2u);
    EXPECT_EQ(report.audit.functions[0].entry, 0u);
    EXPECT_EQ(report.audit.functions[0].unresolvedSites, 1u);
    EXPECT_EQ(report.audit.functions[1].entry, 8u);
    EXPECT_EQ(report.audit.functions[1].unresolvedSites, 3u);
}

TEST(VerifierPass3, MalformedEntryTableRejectedBeforeVerification)
{
    System sys(toyConfig());
    addToy(sys, "plugin")
        .withImage({0xC3, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90})
        .withEntryPoints({0})
        .withIndirectTables({{100, 5}});
    try {
        sys.boot();
        FAIL() << "loader accepted an out-of-image entry table";
    } catch (const VerifierError &e) {
        EXPECT_NE(std::string(e.what()).find("indirect-target table"),
                  std::string::npos)
            << e.what();
    }
}

// ----------------------------------------------------------------------
// Jump-table resolution soundness: the statically resolved target set
// must equal what a brute-force interpreter of the guarded dispatch
// computes for every in-bounds index.
// ----------------------------------------------------------------------

std::vector<std::size_t>
interpretTable(std::span<const uint8_t> image, std::size_t tableBase,
               std::size_t count)
{
    std::vector<std::size_t> targets;
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t at = tableBase + 4 * i;
        uint32_t v = 0;
        for (int b = 3; b >= 0; --b)
            v = (v << 8) | image[at + static_cast<std::size_t>(b)];
        targets.push_back(tableBase +
                          static_cast<std::size_t>(
                              static_cast<int32_t>(v)));
    }
    return targets;
}

TEST(VerifierPass3, JumpTableResolutionMatchesBruteForce)
{
    // Deterministic LCG; no entropy wanted in a soundness sweep.
    uint32_t state = 0x2bad'cafe;
    auto next = [&state](uint32_t below) {
        state = state * 1664525u + 1013904223u;
        return (state >> 16) % below;
    };

    for (std::size_t count = 1; count <= 8; ++count) {
        for (int trial = 0; trial < 32; ++trial) {
            const std::size_t sled = 4 * count + 8;
            std::vector<int32_t> entries;
            for (std::size_t i = 0; i < count; ++i)
                entries.push_back(static_cast<int32_t>(
                    4 * count + next(static_cast<uint32_t>(sled))));
            std::vector<uint8_t> img = jumpTableIdiom(
                entries, static_cast<uint8_t>(16 + 4 * count + sled));
            for (std::size_t i = 0; i < sled; ++i)
                img.push_back(0x90);
            img.push_back(0xC3);

            const audit::JumpTableMatch m =
                audit::matchJumpTable(img, 0);
            ASSERT_TRUE(m.matched) << "count " << count;
            EXPECT_EQ(m.tableBase, kTableBase);
            EXPECT_EQ(m.count, count);
            // Resolved ⊇ interpreted — and in fact identical, in
            // table order with duplicates kept.
            EXPECT_EQ(m.targets,
                      interpretTable(img, kTableBase, count));
        }
    }
}

TEST(VerifierPass3, MutatedDispatchIdiomDoesNotMatch)
{
    const std::vector<uint8_t> base = cleanJumpTableImage();

    {
        // movsxd indexes a different base register than the lea loaded.
        std::vector<uint8_t> img = base;
        img[16] = 0x82; // sib base rdx, not rcx
        EXPECT_FALSE(audit::matchJumpTable(img, 0).matched);
    }
    {
        // The dispatch jumps through a register the add never wrote.
        std::vector<uint8_t> img = base;
        img[21] = 0xE2; // jmp rdx
        EXPECT_FALSE(audit::matchJumpTable(img, 0).matched);
    }
    {
        // Table truncated by the image end.
        std::vector<uint8_t> img(base.begin(), base.begin() + 25);
        EXPECT_FALSE(audit::matchJumpTable(img, 0).matched);
    }
}

// ----------------------------------------------------------------------
// Least-privilege dataflow audit behind the strict gate, one test per
// audit level a caller can pick after boot(): off (lint gates), report
// (audit reported, lint gates) and strict (lint + audit gate).
// ----------------------------------------------------------------------

bool
hasRule(const std::vector<audit::LintFinding> &findings,
        audit::LintRule rule)
{
    for (const audit::LintFinding &f : findings) {
        if (f.rule == rule)
            return true;
    }
    return false;
}

/**
 * producer shares a buffer with consumer and bystander; consumer
 * always writes through its grant during init, bystander's behaviour
 * is the test parameter.
 */
void
wireThreeWay(System &sys, char **buf, bool bystanderReads)
{
    auto &producer = testing::addToy(sys, "producer");
    auto &consumer = testing::addToy(sys, "consumer");
    auto &bystander = testing::addToy(sys, "bystander");
    producer.onInit([buf](ToyComponent &self) {
        System &s = *self.sys();
        *buf = static_cast<char *>(s.heapAlloc(256));
        const Wid wid = s.windowInit();
        s.windowAdd(wid, *buf, 256);
        s.windowOpen(wid, s.cidOf("consumer"));
        s.windowOpen(wid, s.cidOf("bystander"));
    });
    consumer.onInit([buf](ToyComponent &self) {
        self.sys()->touch(*buf, 64, hw::Access::kWrite);
    });
    if (bystanderReads) {
        bystander.onInit([buf](ToyComponent &self) {
            self.sys()->touch(*buf, 64, hw::Access::kRead);
        });
    }
}

TEST(AuditLevel, StrictRefusesOverBroadAcl)
{
    System sys(toyConfig());
    char *buf = nullptr;
    wireThreeWay(sys, &buf, /*bystanderReads=*/false);
    sys.boot();
    try {
        audit::requireClean(audit::audit(sys));
        FAIL() << "strict audit accepted an unexercised grant";
    } catch (const LoaderError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("strict verify"), std::string::npos);
        EXPECT_NE(what.find("acl-over-broad"), std::string::npos);
        EXPECT_NE(what.find("bystander"), std::string::npos);
    }
}

TEST(AuditLevel, StrictBootsWhenEveryGrantIsExercised)
{
    System sys(toyConfig());
    char *buf = nullptr;
    // bystander only reads: that leaves the info-severity
    // write-grant-read-only finding, which the gate tolerates.
    wireThreeWay(sys, &buf, /*bystanderReads=*/true);
    sys.boot();
    const std::vector<audit::LintFinding> findings = audit::audit(sys);
    EXPECT_NO_THROW(audit::requireClean(findings));
    EXPECT_TRUE(hasRule(findings, audit::LintRule::kWriteGrantReadOnly));
}

TEST(AuditLevel, OffPreservesLintOnlyStrictBoot)
{
    System sys(toyConfig());
    char *buf = nullptr;
    wireThreeWay(sys, &buf, /*bystanderReads=*/false);
    sys.boot();
    // The lint-only gate runs no dataflow rule.
    const std::vector<audit::LintFinding> findings = audit::lint(sys);
    EXPECT_NO_THROW(audit::requireClean(findings));
    EXPECT_FALSE(hasRule(findings, audit::LintRule::kAclOverBroad));
    EXPECT_FALSE(hasRule(findings, audit::LintRule::kWindowNeverUsed));
    EXPECT_FALSE(hasRule(findings, audit::LintRule::kWriteGrantReadOnly));
}

TEST(AuditLevel, ReportCountsWithoutRefusing)
{
    System sys(toyConfig());
    char *buf = nullptr;
    wireThreeWay(sys, &buf, /*bystanderReads=*/false);
    sys.boot();
    // The dataflow findings are reported, not gated on.
    const std::vector<audit::LintFinding> findings = audit::audit(sys);
    EXPECT_FALSE(audit::lintClean(findings));
    EXPECT_TRUE(hasRule(findings, audit::LintRule::kAclOverBroad));
    EXPECT_NO_THROW(audit::requireClean(audit::lint(sys)));
}

TEST(AuditLevel, AuditIsolationConcatenatesBothRuleSets)
{
    System sys(toyConfig());
    char *buf = nullptr;
    wireThreeWay(sys, &buf, /*bystanderReads=*/false);
    sys.boot();

    const std::vector<audit::LintFinding> findings = audit::audit(sys);
    EXPECT_TRUE(hasRule(findings, audit::LintRule::kAclOverBroad));
    EXPECT_FALSE(audit::lintClean(findings));
    // The syntactic findings come first, exactly as lint() reports them.
    const std::vector<audit::LintFinding> syntactic = audit::lint(sys);
    ASSERT_LT(syntactic.size(), findings.size());
    for (std::size_t i = 0; i < syntactic.size(); ++i)
        EXPECT_EQ(findings[i].rule, syntactic[i].rule);
}

// ----------------------------------------------------------------------
// JSON report: determinism and the committed clean baseline
// ----------------------------------------------------------------------

/** A fixed toy deployment exercising every JSON section. */
std::unique_ptr<System>
fixtureSystem()
{
    auto sys = std::make_unique<System>(toyConfig());
    static char *buf; // rebound in init on every boot
    auto &gateway = testing::addToy(*sys, "gateway");
    auto &engine = testing::addToy(*sys, "engine");
    gateway.withImage(cleanJumpTableImage()).withEntryPoints({0});
    engine.withImage(leaCallImage({0xC3})).withEntryPoints({0});
    gateway.onInit([](ToyComponent &self) {
        System &s = *self.sys();
        buf = static_cast<char *>(s.heapAlloc(256));
        const Wid wid = s.windowInit();
        s.windowAdd(wid, buf, 256);
        s.windowOpen(wid, s.cidOf("engine"));
    });
    engine.onInit([](ToyComponent &self) {
        self.sys()->touch(buf, 64, hw::Access::kRead);
    });
    sys->boot();
    return sys;
}

TEST(AuditJson, DeterministicAcrossCalls)
{
    auto sys = fixtureSystem();
    const std::string first = audit::auditJson(*sys);
    const std::string second = audit::auditJson(*sys);
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("\"schema\":\"cubicleos-audit-v1\""),
              std::string::npos);
}

TEST(AuditJson, MatchesCommittedBaseline)
{
    const char *path =
        CUBICLEOS_SOURCE_DIR "/tests/fixtures/audit_baseline.json";
    auto sys = fixtureSystem();
    const std::string actual = audit::auditJson(*sys);

    if (std::getenv("CUBICLEOS_REGEN_FIXTURES") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out.good()) << path;
        out << actual;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << path << " missing — regenerate with "
        << "CUBICLEOS_REGEN_FIXTURES=1";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual, expected.str())
        << "audit JSON drifted from the committed baseline; if the "
        << "change is intended, regenerate with "
        << "CUBICLEOS_REGEN_FIXTURES=1";
}

// ----------------------------------------------------------------------
// In-tree deployments: the full-system gate. After real traffic the
// audit must come back clean, and the pass-3 resolution rate must
// leave fewer than 20% of indirect sites opaque.
// ----------------------------------------------------------------------

void
expectDeploymentClean(System &sys)
{
    const std::vector<audit::LintFinding> findings = audit::audit(sys);
    EXPECT_TRUE(audit::lintClean(findings))
        << audit::formatFindings(findings, audit::LintSeverity::kWarning);

    const std::size_t count = sys.monitor().cubicleCount();
    ASSERT_GT(count, 0u);
    for (Cid cid = 0; cid < count; ++cid) {
        const audit::VerifierReport r = audit::imageReport(sys, cid);
        ASSERT_TRUE(r.audit.ran) << cid;
        EXPECT_LT(r.audit.unresolvedRate(), 0.2)
            << "cubicle " << cid << " ('"
            << sys.monitor().cubicle(cid).name << "'): "
            << r.audit.unresolvedSites << " of "
            << r.audit.resolvedSites + r.audit.unresolvedSites
            << " indirect sites unresolved";
    }
    // The JSON render of a real deployment stays deterministic.
    EXPECT_EQ(audit::auditJson(sys), audit::auditJson(sys));
}

TEST(DeploymentAudit, HttpdEightCubiclesAuditsClean)
{
    httpd::HttpHarness harness(IsolationMode::kFull, 32768, 0);
    harness.createFile("/index.html", 1024);
    const auto fetched = harness.fetch("/index.html");
    ASSERT_EQ(fetched.status, 200);
    expectDeploymentClean(harness.sys());
}

TEST(DeploymentAudit, MultiTenantSixtyFourCubiclesAuditsClean)
{
    // 12 infrastructure cubicles + 26 tenant groups of 2 = 64 logical
    // cubicles multiplexed onto 16 physical MPK tags. The deployment
    // must boot, serve real traffic for resident AND parked tenants,
    // and come back audit-clean.
    httpd::HttpHarness harness(IsolationMode::kFull, 65536,
                               httpd::HttpHarness::kRequestBaseCycles,
                               /*sendfile=*/false, 26);
    ASSERT_GE(harness.sys().cubicleCount(), 64u);
    harness.createFile(0, "/index.html", 1024);
    harness.createFile(25, "/index.html", 1024);
    ASSERT_EQ(harness.fetch(0, "/index.html").status, 200);
    ASSERT_EQ(harness.fetch(25, "/index.html").status, 200);
    expectDeploymentClean(harness.sys());
}

TEST(DeploymentAudit, MinisqlSevenCubiclesAuditsClean)
{
    auto dep = baselines::SqliteDeployment::makeCubicles(
        7, IsolationMode::kFull);
    ASSERT_NE(dep->system(), nullptr);
    minisql::Speedtest bench(&dep->database(), 50);
    dep->enter([&] {
        for (int id : {100, 110, 120})
            ASSERT_NO_THROW(bench.run(id)) << id;
    });
    expectDeploymentClean(*dep->system());
}

} // namespace
} // namespace cubicleos::core
