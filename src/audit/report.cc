#include <cstdio>
#include <iterator>

#include "audit/audit.h"
#include "audit/ipcfg.h"
#include "core/errors.h"
#include "core/system.h"

namespace cubicleos::audit {

using core::AclMask;
using core::Cid;
using core::WindowWiring;
using core::WiringSnapshot;

namespace {

/** The syntactic rules, then the dataflow rules, over @p snap. */
std::vector<LintFinding>
collect(const WiringSnapshot &snap)
{
    std::vector<LintFinding> findings = lintWiring(snap);
    std::vector<LintFinding> used = auditWiring(snap);
    findings.insert(findings.end(), std::make_move_iterator(used.begin()),
                    std::make_move_iterator(used.end()));
    return findings;
}

// ----------------------------------------------------------------------
// JSON rendering. Hand-rolled on purpose: the output must be byte-for-
// byte deterministic so tests can diff it against a committed baseline,
// which rules out floats, addresses, timestamps and map iteration
// order. Everything below emits integers, booleans and escaped strings
// in a fixed key order.
// ----------------------------------------------------------------------

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (const char ch : s) {
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(ch)));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    out += '"';
}

void
appendNum(std::string &out, std::size_t v)
{
    out += std::to_string(v);
}

void
appendBool(std::string &out, bool v)
{
    out += v ? "true" : "false";
}

/** Renders an ACL mask as an ascending array of cubicle IDs. */
void
appendAcl(std::string &out, AclMask mask)
{
    out += '[';
    bool first = true;
    for (int cid = 0; cid < core::kMaxCubicles; ++cid) {
        if ((mask & core::aclBit(static_cast<Cid>(cid))) == 0)
            continue;
        if (!first)
            out += ',';
        first = false;
        appendNum(out, static_cast<std::size_t>(cid));
    }
    out += ']';
}

void
appendImage(std::string &out, const std::string &component,
            const VerifierReport &r)
{
    out += "{\"component\":";
    appendEscaped(out, component);
    out += ",\"bytes\":";
    appendNum(out, r.imageBytes);
    out += ",\"insns\":";
    appendNum(out, r.insnCount);
    out += ",\"undecodable\":";
    appendNum(out, r.undecodableBytes);
    out += ",\"findings\":{\"rejecting\":";
    appendNum(out, r.rejectingCount());
    out += ",\"reported\":";
    appendNum(out, r.reportedCount());
    out += "},\"pass2\":{\"ran\":";
    appendBool(out, r.cfg.ran);
    out += ",\"reachableInsns\":";
    appendNum(out, r.cfg.reachableInsns);
    out += ",\"indirectCalls\":";
    appendNum(out, r.cfg.indirectSites);
    out += ",\"indirectJumps\":";
    appendNum(out, r.cfg.indirectJumps);
    out += "},\"pass3\":{\"ran\":";
    appendBool(out, r.audit.ran);
    out += ",\"functions\":";
    appendNum(out, r.audit.functionCount);
    out += ",\"resolvedSites\":";
    appendNum(out, r.audit.resolvedSites);
    out += ",\"unresolvedSites\":";
    appendNum(out, r.audit.unresolvedSites);
    out += ",\"tableBytes\":";
    appendNum(out, r.audit.tableBytes);

    // Resolved sites aggregate per resolution kind; unresolved sites
    // are listed one by one — no silent opacity.
    std::size_t byKind[3] = {0, 0, 0};
    for (const IndirectSiteRecord &s : r.audit.indirectSites) {
        if (!s.resolved)
            continue;
        const std::string how = s.how;
        if (how == "jump-table")
            byKind[0]++;
        else if (how == "lea-call")
            byKind[1]++;
        else if (how == "entry-table")
            byKind[2]++;
    }
    out += ",\"resolvedByKind\":{\"jump-table\":";
    appendNum(out, byKind[0]);
    out += ",\"lea-call\":";
    appendNum(out, byKind[1]);
    out += ",\"entry-table\":";
    appendNum(out, byKind[2]);
    out += "},\"unresolved\":[";
    bool first = true;
    for (const IndirectSiteRecord &s : r.audit.indirectSites) {
        if (s.resolved)
            continue;
        if (!first)
            out += ',';
        first = false;
        out += "{\"offset\":";
        appendNum(out, s.offset);
        out += ",\"kind\":";
        out += s.isJump ? "\"jump\"" : "\"call\"";
        out += ",\"function\":";
        appendNum(out, s.function);
        out += '}';
    }
    out += "],\"witnesses\":[";
    first = true;
    for (const WitnessPath &w : r.audit.witnessPaths) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"finding\":";
        appendNum(out, w.findingOffset);
        out += ",\"steps\":[";
        for (std::size_t i = 0; i < w.steps.size(); ++i) {
            if (i != 0)
                out += ',';
            appendNum(out, w.steps[i]);
        }
        out += "]}";
    }
    out += "]}}";
}

} // namespace

std::vector<LintFinding>
lint(core::System &sys)
{
    return lintWiring(sys.wiringSnapshot());
}

std::vector<LintFinding>
audit(core::System &sys)
{
    return collect(sys.wiringSnapshot());
}

VerifierReport
imageReport(core::System &sys, Cid cid)
{
    const core::ComponentSpec spec = sys.componentAt(cid).spec();
    return verifyImageInter(spec.image, spec.entryPoints,
                            spec.indirectTables);
}

std::string
auditJson(core::System &sys)
{
    const WiringSnapshot snap = sys.wiringSnapshot();
    const std::vector<LintFinding> findings = collect(snap);
    core::Monitor &monitor = sys.monitor();

    std::string out;
    out.reserve(4096);
    out += "{\"schema\":\"cubicleos-audit-v1\",\"images\":[";
    for (Cid cid = 0; cid < monitor.cubicleCount(); ++cid) {
        if (cid != 0)
            out += ',';
        appendImage(out, monitor.cubicle(cid).name,
                    imageReport(sys, cid));
    }

    out += "],\"windows\":[";
    bool first = true;
    for (const WindowWiring &w : snap.windows) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"wid\":";
        appendNum(out, static_cast<std::size_t>(w.wid));
        out += ",\"owner\":";
        appendNum(out, static_cast<std::size_t>(w.owner));
        out += ",\"hot\":";
        appendBool(out, w.hotKey >= 0);
        out += ",\"ranges\":";
        appendNum(out, w.rangeCount);
        out += ",\"acl\":";
        appendAcl(out, w.acl);
        out += ",\"usedRead\":";
        appendAcl(out, w.usedRead);
        out += ",\"usedWrite\":";
        appendAcl(out, w.usedWrite);
        out += '}';
    }

    out += "],\"findings\":[";
    first = true;
    for (const LintFinding &f : findings) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"rule\":";
        appendEscaped(out, lintRuleName(f.rule));
        out += ",\"severity\":";
        appendEscaped(out, lintSeverityName(f.severity));
        out += ",\"cubicle\":";
        appendNum(out, static_cast<std::size_t>(f.cubicle));
        out += ",\"window\":";
        appendNum(out, static_cast<std::size_t>(f.window));
        out += ",\"message\":";
        appendEscaped(out, f.message);
        out += '}';
    }
    out += "]}";
    return out;
}

std::string
formatFindings(const std::vector<LintFinding> &findings,
               LintSeverity threshold, Cid scope)
{
    std::string out;
    for (const LintFinding &f : findings) {
        if (f.severity < threshold ||
            (scope != core::kNoCubicle && f.cubicle != scope))
            continue;
        out += "  [";
        out += lintSeverityName(f.severity);
        out += "] ";
        out += lintRuleName(f.rule);
        out += ": ";
        out += f.message;
        out += '\n';
    }
    return out;
}

void
requireClean(const std::vector<LintFinding> &findings, Cid scope)
{
    const std::string offenders =
        formatFindings(findings, LintSeverity::kWarning, scope);
    if (offenders.empty())
        return;
    std::string msg = "strict verify: isolation audit failed";
    if (scope != core::kNoCubicle)
        msg += " for cubicle " + std::to_string(scope);
    throw core::LoaderError(msg + ":\n" + offenders);
}

} // namespace cubicleos::audit
