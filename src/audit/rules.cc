#include "audit/audit.h"

#include <cctype>

namespace cubicleos::audit {

using core::aclBit;
using core::AclMask;
using core::Cid;
using core::CubicleKind;
using core::CubicleWiring;
using core::ExportWiring;
using core::kInvalidWindow;
using core::kMaxCubicles;
using core::WindowWiring;
using core::WiringSnapshot;

namespace {

std::string
cubicleName(const WiringSnapshot &snapshot, Cid cid)
{
    for (const CubicleWiring &c : snapshot.cubicles) {
        if (c.id == cid)
            return c.name;
    }
    return "cubicle " + std::to_string(cid);
}

/** "window <wid> of '<owner>'", the subject of every window finding. */
std::string
windowOf(const WiringSnapshot &snapshot, const WindowWiring &w)
{
    return "window " + std::to_string(w.wid) + " of '" +
           cubicleName(snapshot, w.owner) + "'";
}

} // namespace

bool
signaturePassesPointers(const char *mangledSig)
{
    if (mangledSig == nullptr)
        return false;
    for (const char *p = mangledSig; *p != '\0';) {
        const unsigned char c = static_cast<unsigned char>(*p);
        if (std::isdigit(c)) {
            // Length-prefixed identifier: skip the digits, then the
            // identifier body (its characters are not type codes).
            std::size_t len = 0;
            while (std::isdigit(static_cast<unsigned char>(*p)))
                len = len * 10 + static_cast<std::size_t>(*p++ - '0');
            while (len-- > 0 && *p != '\0')
                ++p;
            continue;
        }
        if (c == 'S') {
            // Substitution reference (S_, S0_, ...): skip through '_'.
            ++p;
            while (*p != '\0' && *p != '_')
                ++p;
            if (*p == '_')
                ++p;
            continue;
        }
        if (c == 'P')
            return true;
        ++p;
    }
    return false;
}

const char *
lintRuleName(LintRule rule)
{
    switch (rule) {
      case LintRule::kIsolatedUsesSharedKey: return "isolated-uses-shared-key";
      case LintRule::kAclGhostPeer: return "acl-ghost-peer";
      case LintRule::kAclSelfGrant: return "acl-self-grant";
      case LintRule::kPointerExportNoWindow: return "pointer-export-no-window";
      case LintRule::kOpenWindowNoRanges: return "open-window-no-ranges";
      case LintRule::kAclStaleGrant: return "acl-stale-grant";
      case LintRule::kAclOverBroad: return "acl-over-broad";
      case LintRule::kWindowNeverUsed: return "window-never-used";
      case LintRule::kWriteGrantReadOnly: return "write-grant-read-only";
    }
    return "unknown";
}

const char *
lintSeverityName(LintSeverity severity)
{
    switch (severity) {
      case LintSeverity::kInfo: return "info";
      case LintSeverity::kWarning: return "warning";
      case LintSeverity::kError: return "error";
    }
    return "unknown";
}

std::vector<LintFinding>
lintWiring(const WiringSnapshot &snapshot)
{
    std::vector<LintFinding> findings;
    const std::size_t count = snapshot.cubicles.size();

    // Rule: isolated components must not be tagged with the shared key
    // — their whole state would be readable from every cubicle.
    for (const CubicleWiring &c : snapshot.cubicles) {
        if (c.kind == CubicleKind::kIsolated &&
            c.pkey == snapshot.sharedKey) {
            findings.push_back(LintFinding{
                LintRule::kIsolatedUsesSharedKey, LintSeverity::kError,
                c.id, kInvalidWindow,
                "isolated component '" + c.name +
                    "' is mapped with the shared MPK key; its memory "
                    "is readable from every cubicle"});
        }
    }

    for (const WindowWiring &w : snapshot.windows) {
        // Rule: ACL bits must name cubicles that exist. A bit beyond
        // the cubicle table is latent access for whatever loads next.
        for (int cid = 0; cid < kMaxCubicles; ++cid) {
            if ((w.acl & aclBit(static_cast<Cid>(cid))) == 0)
                continue;
            const auto peer = static_cast<Cid>(cid);
            if (peer >= count) {
                findings.push_back(LintFinding{
                    LintRule::kAclGhostPeer, LintSeverity::kError,
                    w.owner, w.wid,
                    windowOf(snapshot, w) + " grants cubicle " +
                        std::to_string(cid) +
                        ", which does not exist; the grant leaks to "
                        "the next loaded component"});
            } else if (peer == w.owner) {
                // Rule: the owner has implicit access (window 0); a
                // self bit is dead weight that hides peer bugs.
                findings.push_back(LintFinding{
                    LintRule::kAclSelfGrant, LintSeverity::kWarning,
                    w.owner, w.wid,
                    windowOf(snapshot, w) +
                        " grants its own owner; owners have implicit "
                        "access"});
            }
        }

        // Rule: an open ACL over an empty window. Two flavours: if
        // ranges *were* added and have all been removed (or destroyed
        // and the slot recycled), the ACL has outlived every grant it
        // covered — that is the stale-grant bug class from the paper's
        // window lifecycle (§4.2) and warrants a warning. An ACL that
        // never covered any range is merely odd wiring (info).
        if (w.acl != 0 && w.rangeCount == 0) {
            if (w.rangesEverAdded > 0) {
                findings.push_back(LintFinding{
                    LintRule::kAclStaleGrant, LintSeverity::kWarning,
                    w.owner, w.wid,
                    windowOf(snapshot, w) +
                        " keeps an open ACL after every range it ever "
                        "added (" + std::to_string(w.rangesEverAdded) +
                        ") was removed; peers retain a grant over "
                        "nothing and the next add re-exposes memory"});
            } else {
                findings.push_back(LintFinding{
                    LintRule::kOpenWindowNoRanges, LintSeverity::kInfo,
                    w.owner, w.wid,
                    windowOf(snapshot, w) +
                        " has an open ACL but no memory ranges"});
            }
        }
    }

    // Rule: a pointer-passing export of an isolated component is only
    // usable if some window grants that component access to foreign
    // memory; otherwise every call is doomed to fault.
    std::vector<bool> flagged(count, false);
    for (const ExportWiring &e : snapshot.exports) {
        if (e.ownerKind == CubicleKind::kShared ||
            !signaturePassesPointers(e.sigName.c_str()))
            continue;
        if (e.owner >= count || flagged[e.owner])
            continue;
        bool granted = false;
        for (const WindowWiring &w : snapshot.windows) {
            if ((w.acl & aclBit(e.owner)) != 0) {
                granted = true;
                break;
            }
        }
        if (!granted) {
            flagged[e.owner] = true;
            findings.push_back(LintFinding{
                LintRule::kPointerExportNoWindow, LintSeverity::kInfo,
                e.owner, kInvalidWindow,
                "isolated component '" + cubicleName(snapshot, e.owner) +
                    "' exports pointer-taking '" + e.name +
                    "' but no declared window grants it access to any "
                    "caller memory"});
        }
    }
    return findings;
}

std::vector<LintFinding>
auditWiring(const WiringSnapshot &snapshot)
{
    std::vector<LintFinding> findings;
    const std::size_t count = snapshot.cubicles.size();

    for (const WindowWiring &w : snapshot.windows) {
        // Hot windows are retagged eagerly and never fault, so the
        // usage matrix is structurally blind to them (DESIGN.md §12).
        if (w.hotKey >= 0)
            continue;
        if (w.acl == 0)
            continue;

        const AclMask used = w.usedRead | w.usedWrite;

        // A window with memory behind it that no peer ever touched is
        // one collapsed finding, not one over-broad finding per peer.
        // (An empty window with an open ACL is the syntactic rules'
        // stale-grant / no-ranges territory; skip it here.)
        if (used == 0) {
            if (w.rangeCount > 0) {
                findings.push_back(LintFinding{
                    LintRule::kWindowNeverUsed, LintSeverity::kWarning,
                    w.owner, w.wid,
                    windowOf(snapshot, w) +
                        " has ranges and an open ACL but no peer ever "
                        "accessed it; the grant is pure attack surface"});
            }
            continue;
        }

        for (int cid = 0; cid < kMaxCubicles; ++cid) {
            const auto peer = static_cast<Cid>(cid);
            const AclMask bit = aclBit(peer);
            if ((w.acl & bit) == 0)
                continue;
            // Self and ghost grants are already flagged by the
            // syntactic rules; repeating them as dataflow findings
            // would double-report one wiring mistake. (The monitor
            // refuses to open a window to a shared cubicle.)
            if (peer == w.owner || peer >= count)
                continue;
            if ((used & bit) == 0) {
                findings.push_back(LintFinding{
                    LintRule::kAclOverBroad, LintSeverity::kWarning,
                    w.owner, w.wid,
                    windowOf(snapshot, w) + " grants '" +
                        cubicleName(snapshot, peer) +
                        "', which never accessed it; the grant can be "
                        "dropped"});
            } else if ((w.usedWrite & bit) == 0) {
                findings.push_back(LintFinding{
                    LintRule::kWriteGrantReadOnly, LintSeverity::kInfo,
                    w.owner, w.wid,
                    windowOf(snapshot, w) + " grants '" +
                        cubicleName(snapshot, peer) +
                        "' read+write but the peer only ever read; a "
                        "read-only window would suffice"});
            }
        }
    }
    return findings;
}

bool
lintClean(const std::vector<LintFinding> &findings, LintSeverity threshold)
{
    for (const LintFinding &f : findings) {
        if (f.severity >= threshold)
            return false;
    }
    return true;
}

} // namespace cubicleos::audit
