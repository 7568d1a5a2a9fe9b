/**
 * @file
 * CI gate: boots every in-tree deployment, drives a representative
 * workload so the fault history is populated, and runs the combined
 * isolation audit (syntactic lint + least-privilege dataflow + the
 * per-image pass-3 records of the auditor's reachability walk). Exits
 * non-zero on any warning-or-worse finding — `cmake --build build
 * --target verify-audit` is the one-command deployment audit.
 *
 * Pass a file path as argv[1] to also dump the httpd deployment's
 * machine-readable audit JSON (audit::auditJson) for diffing.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/httpd/harness.h"
#include "apps/minisql/speedtest.h"
#include "audit/audit.h"
#include "baselines/deployments.h"
#include "core/system.h"

namespace {

using namespace cubicleos;

/** Prints every finding; returns the number at warning or above. */
int
reportFindings(const char *deployment, core::System &sys)
{
    const std::vector<audit::LintFinding> findings = audit::audit(sys);
    std::fputs(audit::formatFindings(findings).c_str(), stdout);
    const auto bad = static_cast<int>(std::count_if(
        findings.begin(), findings.end(), [](const audit::LintFinding &f) {
            return f.severity >= audit::LintSeverity::kWarning;
        }));

    std::size_t resolved = 0;
    std::size_t unresolved = 0;
    const std::size_t count = sys.monitor().cubicleCount();
    for (core::Cid cid = 0; cid < count; ++cid) {
        const audit::ImageAudit record = audit::imageReport(sys, cid).audit;
        resolved += record.resolvedSites;
        unresolved += record.unresolvedSites;
    }
    std::printf("%s: %zu cubicles, %zu findings (%d warning+), "
                "indirect sites %zu resolved / %zu unresolved\n",
                deployment, count, findings.size(), bad, resolved,
                unresolved);
    return bad;
}

} // namespace

int
main(int argc, char **argv)
{
    int bad = 0;

    std::printf("== httpd (8 cubicles, full isolation) ==\n");
    httpd::HttpHarness harness(core::IsolationMode::kFull, 32768, 0);
    harness.createFile("/index.html", 4096);
    if (harness.fetch("/index.html").status != 200) {
        std::printf("FAIL: httpd workload did not serve\n");
        return 1;
    }
    bad += reportFindings("httpd", harness.sys());
    if (argc > 1) {
        std::ofstream out(argv[1], std::ios::trunc);
        out << audit::auditJson(harness.sys());
        std::printf("audit JSON written to %s\n", argv[1]);
    }

    std::printf("== multi-tenant httpd (64 cubicles on 16 MPK tags, "
                "full isolation) ==\n");
    httpd::HttpHarness mt(core::IsolationMode::kFull, 65536,
                          httpd::HttpHarness::kRequestBaseCycles,
                          /*sendfile=*/false, 26);
    mt.createFile(0, "/index.html", 2048);
    mt.createFile(13, "/index.html", 2048);
    mt.createFile(25, "/index.html", 2048);
    for (int t : {0, 13, 25}) {
        if (mt.fetch(t, "/index.html").status != 200) {
            std::printf("FAIL: tenant %d did not serve\n", t);
            return 1;
        }
    }
    bad += reportFindings("multitenant-httpd", mt.sys());

    std::printf("== minisql (7 cubicles, full isolation) ==\n");
    auto dep = baselines::SqliteDeployment::makeCubicles(
        7, core::IsolationMode::kFull);
    minisql::Speedtest bench(&dep->database(), 50);
    dep->enter([&] {
        for (int id : {100, 110, 120})
            bench.run(id);
    });
    bad += reportFindings("minisql", *dep->system());

    if (bad > 0) {
        std::printf("verify-audit: FAILED — %d warning-or-worse "
                    "finding(s)\n", bad);
        return 1;
    }
    std::printf("verify-audit: clean\n");
    return 0;
}
