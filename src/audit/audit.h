/**
 * @file
 * Isolation linter, least-privilege auditor and per-image code audit,
 * outside the trusted core.
 *
 * The linter and the auditor read a core::WiringSnapshot
 * (core/wiring.h) — the monitor's plain-data export of cubicles, live
 * windows with their ACL masks and fault-observed usage, and exports —
 * and never touch the enforcement path (load, verify, cross-call,
 * fault, destroy). The code audit (imageReport) runs the reachability
 * walk (ipcfg.h) over the image each cubicle was loaded from. Two rule
 * sets:
 *
 * Syntactic rules (lintWiring) check what the wiring *declares*:
 *   - window ACL bits granting cubicle IDs that do not exist;
 *   - self-grants (the owner has implicit access; a self bit hides
 *     missing-peer bugs);
 *   - isolated components mapped with the shared MPK key (their state
 *     would be readable from every cubicle);
 *   - pointer-passing exports of isolated components that no declared
 *     window anywhere grants access to;
 *   - open ACLs over empty windows: stale (every range removed) or
 *     never populated.
 *
 * Dataflow rules (auditWiring) check what the deployment actually
 * *did*, diffing the used communication matrix against the ACLs:
 *   - acl-over-broad (warning): a peer holds an ACL bit it never
 *     exercised — the grant can be dropped;
 *   - window-never-used (warning): a live window with ranges and a
 *     non-empty ACL that no peer ever faulted through;
 *   - write-grant-read-only (info): every access a peer made through
 *     its grant was a read.
 *
 * Usage is fault-observed, so two deliberate blind spots apply (both
 * documented in DESIGN.md §12): hot windows never fault and are
 * skipped; and the audit is only as good as the workload that ran
 * before it — audit after traffic, not after boot, unless init itself
 * is meant to exercise every grant.
 *
 * Findings are structured and severity-graded; the rules never throw.
 * Policy is the caller's: requireClean is the one gate. Strict boot is
 * `sys.boot(); audit::requireClean(audit::lint(sys));` and a strict
 * restart gates on the restarted cubicle only:
 * `sys.restartComponent(name); audit::requireClean(audit::lint(sys),
 * sys.cidOf(name));`.
 */

#ifndef CUBICLEOS_AUDIT_AUDIT_H_
#define CUBICLEOS_AUDIT_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "audit/report.h"
#include "core/ids.h"
#include "core/wiring.h"

namespace cubicleos::core {
class System;
}

namespace cubicleos::audit {

/** Rule identifiers, syntactic first, then dataflow. */
enum class LintRule : uint8_t {
    kIsolatedUsesSharedKey, ///< isolated cubicle tagged with shared key
    kAclGhostPeer,          ///< ACL bit for a cubicle that doesn't exist
    kAclSelfGrant,          ///< ACL grants the window's own owner
    kPointerExportNoWindow, ///< pointer export, no window grants callee
    kOpenWindowNoRanges,    ///< non-empty ACL over an empty window
    kAclStaleGrant,         ///< ACL outlived every range ever added
    kAclOverBroad,          ///< ACL bit for a peer that never used it
    kWindowNeverUsed,       ///< live window no peer ever faulted into
    kWriteGrantReadOnly,    ///< write-capable grant, peer only read
};

enum class LintSeverity : uint8_t { kInfo, kWarning, kError };

const char *lintRuleName(LintRule rule);
const char *lintSeverityName(LintSeverity severity);

/** One finding. */
struct LintFinding {
    LintRule rule;
    LintSeverity severity;
    core::Cid cubicle = core::kNoCubicle; ///< cubicle concerned (if any)
    core::Wid window = core::kInvalidWindow; ///< window concerned (if any)
    std::string message;
};

/**
 * Best-effort detection of pointer parameters in an Itanium-mangled
 * function-type name (ExportWiring::sigName): scans for a 'P' type
 * code while skipping length-prefixed identifiers and substitution
 * references. The pointer-export rule of lintWiring reads it.
 */
bool signaturePassesPointers(const char *mangledSig);

/** The syntactic rules over @p snapshot. */
std::vector<LintFinding> lintWiring(const core::WiringSnapshot &snapshot);

/** The dataflow least-privilege rules over @p snapshot. */
std::vector<LintFinding> auditWiring(const core::WiringSnapshot &snapshot);

/** True when no finding reaches @p threshold severity. */
bool lintClean(const std::vector<LintFinding> &findings,
               LintSeverity threshold = LintSeverity::kWarning);

/** The syntactic rules over @p sys's live wiring. */
std::vector<LintFinding> lint(core::System &sys);

/**
 * The syntactic plus dataflow rules over one snapshot of @p sys's
 * wiring. Run it after traffic: on a fresh boot every grant looks
 * over-broad.
 */
std::vector<LintFinding> audit(core::System &sys);

/**
 * The reachability walk (verifyImageInter) over the image loaded into
 * @p cid: the image, entry points and declared tables of
 * System::componentAt(cid).spec(), the spec the loader was handed.
 */
VerifierReport imageReport(core::System &sys, core::Cid cid);

/**
 * The combined machine-readable audit: per-image walk records
 * (imageReport: decode-coverage and finding counts, the walk's
 * CfgSummary in the "pass2" block and its ImageAudit in "pass3"), the
 * window usage matrix, and audit(sys)'s findings, as deterministic
 * JSON (schema cubicleos-audit-v1: fixed key order, integers only, no
 * addresses or timestamps). Safe to diff against a committed baseline.
 */
std::string auditJson(core::System &sys);

/**
 * One "  [severity] rule: message" line per finding at or above
 * @p threshold, restricted to findings anchored to @p scope unless it
 * is kNoCubicle.
 */
std::string formatFindings(const std::vector<LintFinding> &findings,
                           LintSeverity threshold = LintSeverity::kInfo,
                           core::Cid scope = core::kNoCubicle);

/**
 * The strict gate: throws core::LoaderError listing every
 * warning-or-worse finding anchored to @p scope (every finding when
 * @p scope is kNoCubicle); returns normally otherwise.
 */
void requireClean(const std::vector<LintFinding> &findings,
                  core::Cid scope = core::kNoCubicle);

} // namespace cubicleos::audit

#endif // CUBICLEOS_AUDIT_AUDIT_H_
