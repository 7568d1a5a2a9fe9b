#include "audit/ipcfg.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "audit/insn.h"
#include "core/codescan.h"

namespace cubicleos::audit {

using core::EntryTable;
using core::ForbiddenInsn;

namespace {

/** Plausibility bound on any table: a larger count is a misparse. */
constexpr std::size_t kMaxTableEntries = std::size_t{1} << 16;

uint32_t
readLe32(std::span<const uint8_t> image, std::size_t pos)
{
    uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(image[pos + i]) << (8 * i);
    return v;
}

/** A reachable instruction span that decodes forbidden. */
struct ForbiddenSpan {
    std::size_t start = 0;
    std::size_t length = 0;
    const char *mnemonic = "insn";
};

bool
overlaps(const CodeFinding &f, const ForbiddenSpan &s)
{
    return f.offset < s.start + s.length &&
           s.start < f.offset + f.length;
}

} // namespace

JumpTableMatch
matchJumpTable(std::span<const uint8_t> image, std::size_t pos)
{
    JumpTableMatch m;
    const std::size_t n = image.size();
    std::size_t p = pos;

    // cmp rax, imm8/imm32 — the bound guard is always on rax (the
    // shortest encodings, 48 83 F8 ib and the rax-form 48 3D id).
    if (p + 4 > n || image[p] != 0x48)
        return m;
    std::size_t bound = 0;
    if (image[p + 1] == 0x83 && image[p + 2] == 0xF8) {
        if (image[p + 3] >= 0x80) // sign-extends negative: not a bound
            return m;
        bound = image[p + 3];
        p += 4;
    } else if (image[p + 1] == 0x3D) {
        if (p + 6 > n)
            return m;
        bound = readLe32(image, p + 2);
        p += 6;
    } else {
        return m;
    }
    if (bound + 1 > kMaxTableEntries)
        return m;

    // ja default — unsigned, so rax is confined to [0, bound] on the
    // dispatch path.
    if (p + 2 > n)
        return m;
    if (image[p] == 0x77) {
        p += 2;
    } else if (image[p] == 0x0F && p + 6 <= n && image[p + 1] == 0x87) {
        p += 6;
    } else {
        return m;
    }

    // lea L, [rip+disp32]: 48 8D /r with mod=00, rm=101. REX fixed at
    // 48 keeps every register in the low bank so the later ModRM rm
    // fields can name L without REX.B tracking.
    if (p + 7 > n || image[p] != 0x48 || image[p + 1] != 0x8D)
        return m;
    const uint8_t leaModRm = image[p + 2];
    if ((leaModRm >> 6) != 0 || (leaModRm & 7) != 5)
        return m;
    const uint8_t regL = (leaModRm >> 3) & 7;
    const auto disp = static_cast<int32_t>(readLe32(image, p + 3));
    const std::size_t leaEnd = p + 7;
    const int64_t base = static_cast<int64_t>(leaEnd) + disp;
    p = leaEnd;

    // movsxd D, dword [L + rax*4]: 48 63 /r, SIB scale=4, index=rax
    // (the guarded register), base=L.
    if (p + 4 > n || image[p] != 0x48 || image[p + 1] != 0x63)
        return m;
    const uint8_t mxModRm = image[p + 2];
    if ((mxModRm >> 6) != 0 || (mxModRm & 7) != 4)
        return m;
    const uint8_t regD = (mxModRm >> 3) & 7;
    const uint8_t sib = image[p + 3];
    if ((sib >> 6) != 2 || ((sib >> 3) & 7) != 0 || (sib & 7) != regL)
        return m;
    p += 4;

    // add L, D: 48 01 /r with mod=3, reg=D, rm=L.
    if (p + 3 > n || image[p] != 0x48 || image[p + 1] != 0x01)
        return m;
    const uint8_t addModRm = image[p + 2];
    if ((addModRm >> 6) != 3 || ((addModRm >> 3) & 7) != regD ||
        (addModRm & 7) != regL)
        return m;
    p += 3;

    // jmp L: FF /4 with mod=3, rm=L.
    if (p + 2 > n || image[p] != 0xFF)
        return m;
    const uint8_t jmpModRm = image[p + 1];
    if ((jmpModRm >> 6) != 3 || ((jmpModRm >> 3) & 7) != 4 ||
        (jmpModRm & 7) != regL)
        return m;
    const std::size_t jmpOff = p;
    p += 2;

    // The table itself: count 32-bit entries, each a target offset
    // relative to the table base. Any escape from the image voids the
    // match (the site stays unresolved rather than mis-resolved).
    const std::size_t count = bound + 1;
    if (base < 0 || static_cast<std::size_t>(base) >= n ||
        4 * count > n - static_cast<std::size_t>(base))
        return m;
    const auto tbase = static_cast<std::size_t>(base);
    std::vector<std::size_t> targets;
    targets.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
        const uint64_t t = tbase + readLe32(image, tbase + 4 * k);
        if (t >= n)
            return m;
        targets.push_back(static_cast<std::size_t>(t));
    }

    m.matched = true;
    m.idiomStart = pos;
    m.jmpOffset = jmpOff;
    m.idiomEnd = p;
    m.tableBase = tbase;
    m.count = count;
    m.targets = std::move(targets);
    return m;
}

LeaCallMatch
matchLeaCall(std::span<const uint8_t> image, std::size_t pos)
{
    LeaCallMatch m;
    const std::size_t n = image.size();
    // lea L, [rip+disp32] (48 8D /r, mod=00, rm=101) then call L
    // (FF /2, mod=3). REX fixed at 48: the 2-byte call cannot name
    // r8..r15 without REX.B, so high-bank leas never match.
    if (pos + 9 > n || image[pos] != 0x48 || image[pos + 1] != 0x8D)
        return m;
    const uint8_t leaModRm = image[pos + 2];
    if ((leaModRm >> 6) != 0 || (leaModRm & 7) != 5)
        return m;
    const uint8_t regL = (leaModRm >> 3) & 7;
    const auto disp = static_cast<int32_t>(readLe32(image, pos + 3));
    const std::size_t leaEnd = pos + 7;
    if (image[leaEnd] != 0xFF)
        return m;
    const uint8_t callModRm = image[leaEnd + 1];
    if ((callModRm >> 6) != 3 || ((callModRm >> 3) & 7) != 2 ||
        (callModRm & 7) != regL)
        return m;
    const int64_t target = static_cast<int64_t>(leaEnd) + disp;
    if (target < 0 || static_cast<std::size_t>(target) >= n)
        return m;
    m.matched = true;
    m.callOffset = leaEnd;
    m.idiomEnd = leaEnd + 2;
    m.target = static_cast<std::size_t>(target);
    return m;
}

std::vector<ForbiddenInsn>
grepMatches(std::span<const uint8_t> image)
{
    std::vector<ForbiddenInsn> out;
    std::size_t from = 0;
    while (auto m = core::scanCodeImage(image.subspan(from))) {
        m->offset += from;
        from = m->offset + m->length;
        out.push_back(std::move(*m));
    }
    return out;
}

VerifierReport
verifyImageInter(std::span<const uint8_t> image,
                 std::span<const std::size_t> entryPoints,
                 std::span<const EntryTable> tables)
{
    VerifierReport report;
    CfgSummary &cfg = report.cfg;
    ImageAudit &audit = report.audit;
    cfg.ran = true;
    audit.ran = true;
    const std::size_t n = image.size();
    report.imageBytes = n;
    cfg.firstOpaque = n;

    // An image that names no entry points exports its base offset.
    static constexpr std::size_t kDefaultEntry[] = {0};
    std::span<const std::size_t> entries =
        entryPoints.empty() ? std::span<const std::size_t>(kDefaultEntry)
                            : entryPoints;
    cfg.entryCount = entries.size();
    if (n == 0)
        return report;

    // ---- Declared entry tables: the indirect-call target universe.
    std::vector<std::size_t> callUniverse;
    std::vector<uint8_t> isData(n, 0);
    auto markData = [&](std::size_t start, std::size_t len) {
        for (std::size_t b = start; b < start + len; ++b)
            isData[b] = 1;
    };
    for (const EntryTable &t : tables) {
        // A malformed table resolves nothing: the calls it should have
        // covered simply stay unresolved (conservative direction).
        if (t.count == 0 || t.count > kMaxTableEntries)
            continue;
        if (t.offset >= n || 4 * t.count > n - t.offset)
            continue;
        for (std::size_t k = 0; k < t.count; ++k) {
            const uint32_t e = readLe32(image, t.offset + 4 * k);
            if (e < n)
                callUniverse.push_back(e);
        }
        markData(t.offset, 4 * t.count);
    }
    std::sort(callUniverse.begin(), callUniverse.end());
    callUniverse.erase(
        std::unique(callUniverse.begin(), callUniverse.end()),
        callUniverse.end());

    // ---- Idiom scan: probe every byte offset (cheap first-byte
    // filter), so a dispatch is found wherever the walk meets it;
    // matching is byte-exact, so context cannot change what a matched
    // dispatch does.
    std::vector<JumpTableMatch> jumpTables;
    std::unordered_map<std::size_t, std::size_t> jtByJmp;
    std::unordered_map<std::size_t, LeaCallMatch> lcByCall;
    for (std::size_t o = 0; o + 4 <= n; ++o) {
        if (image[o] != 0x48)
            continue;
        const uint8_t b1 = image[o + 1];
        if (b1 == 0x83 || b1 == 0x3D) {
            JumpTableMatch jm = matchJumpTable(image, o);
            if (jm.matched && !jtByJmp.contains(jm.jmpOffset)) {
                jtByJmp.emplace(jm.jmpOffset, jumpTables.size());
                markData(jm.tableBase, 4 * jm.count);
                jumpTables.push_back(std::move(jm));
            }
        } else if (b1 == 0x8D) {
            LeaCallMatch lm = matchLeaCall(image, o);
            if (lm.matched)
                lcByCall.emplace(lm.callOffset, lm);
        }
    }

    // ---- The walk (BFS, so recorded parents give the shortest
    // witness path). funcOf propagates the function partition: call
    // targets and image entries open functions, every other edge
    // stays in the caller's.
    constexpr int32_t kUnvisited = -2;
    constexpr int32_t kRoot = -1;
    std::vector<int32_t> parent(n, kUnvisited);
    std::vector<int32_t> funcOf(n, -1);
    std::vector<uint8_t> reachableByte(n, 0); // union of insn spans
    std::deque<std::size_t> queue;
    std::vector<ForbiddenSpan> spans;
    std::vector<uint8_t> jtCompromised(jumpTables.size(), 0);

    std::unordered_map<std::size_t, std::size_t> funcIdByEntry;
    auto functionFor = [&](std::size_t entry) -> int32_t {
        auto it = funcIdByEntry.find(entry);
        if (it != funcIdByEntry.end())
            return static_cast<int32_t>(it->second);
        const std::size_t id = audit.functions.size();
        funcIdByEntry.emplace(entry, id);
        FunctionAudit fn;
        fn.entry = entry;
        fn.reachable = true;
        audit.functions.push_back(fn);
        return static_cast<int32_t>(id);
    };

    // Sorted idiom interiors, for the guard-bypass check: a resolved
    // dispatch is only bounded when control enters through its cmp/ja
    // guard and falls through the idiom's own instructions, so any
    // other way in that lands strictly inside voids the resolution.
    struct Interior {
        std::size_t start, end, idx;
    };
    std::vector<Interior> interiors;
    interiors.reserve(jumpTables.size());
    for (std::size_t k = 0; k < jumpTables.size(); ++k)
        interiors.push_back(Interior{jumpTables[k].idiomStart,
                                     jumpTables[k].idiomEnd, k});
    std::sort(interiors.begin(), interiors.end(),
              [](const Interior &a, const Interior &b) {
                  return a.start < b.start;
              });
    // `fellFrom` is the source of a fall-through edge into `to`, or n
    // for any other way in: a branch (the idiom's own ja included), a
    // call, a resolved indirect target or an entry point.
    auto checkInterior = [&](std::size_t to, std::size_t fellFrom) {
        // First interior starting after `to`, then step back once:
        // idiom interiors never nest (each is one straight-line code
        // run), so one predecessor candidate suffices.
        auto it = std::upper_bound(
            interiors.begin(), interiors.end(), to,
            [](std::size_t v, const Interior &r) { return v < r.start; });
        if (it == interiors.begin())
            return;
        --it;
        if (to < it->end && to != it->start &&
            (fellFrom < it->start || fellFrom >= it->end))
            jtCompromised[it->idx] = 1;
    };

    // How an edge enters its target: kCall opens a function there
    // (direct or resolved call target); the others inherit `func`.
    enum class Edge { kFallThrough, kBranch, kCall };
    auto pushEdge = [&](std::size_t from, int64_t target, int32_t func,
                        Edge edge) {
        if (target < 0 || static_cast<std::size_t>(target) >= n) {
            cfg.externalTargets++; // import stubs / image end
            return;
        }
        const auto t = static_cast<std::size_t>(target);
        if (!interiors.empty())
            checkInterior(t, edge == Edge::kFallThrough ? from : n);
        if (parent[t] != kUnvisited)
            return;
        parent[t] = static_cast<int32_t>(from);
        funcOf[t] = edge == Edge::kCall ? functionFor(t) : func;
        queue.push_back(t);
    };

    for (const std::size_t e : entries) {
        if (e >= n) {
            // A broken export table leaves nothing to prove.
            cfg.opaque = true;
            continue;
        }
        if (!interiors.empty())
            checkInterior(e, n);
        if (parent[e] != kUnvisited)
            continue;
        parent[e] = kRoot;
        funcOf[e] = functionFor(e);
        queue.push_back(e);
    }

    while (!queue.empty()) {
        const std::size_t pos = queue.front();
        queue.pop_front();
        const int32_t func = funcOf[pos];

        const auto insn = decodeAt(image, pos);
        if (!insn) {
            // Reachable bytes we cannot decode leave the CFG with a
            // hole: no deadness claim is sound.
            cfg.opaque = true;
            cfg.firstOpaque = std::min(cfg.firstOpaque, pos);
            continue;
        }
        const std::size_t end = pos + insn->length;
        cfg.reachableInsns++;
        for (std::size_t b = pos; b < end; ++b)
            reachableByte[b] = 1;
        const std::size_t fnEntry =
            audit.functions[static_cast<std::size_t>(func)].entry;
        audit.functions[static_cast<std::size_t>(func)].insnCount++;
        if (insn->forbidden) {
            // The load is already lost, and the instruction's behaviour
            // (trap or PKRU write) makes its fall-through irrelevant.
            spans.push_back(
                ForbiddenSpan{pos, insn->length, insn->mnemonic});
            continue;
        }

        const auto next = static_cast<int64_t>(end);
        const int64_t target = next + insn->branchRel;
        switch (insn->flow) {
          case FlowKind::kSequential:
            pushEdge(pos, next, func, Edge::kFallThrough);
            break;
          case FlowKind::kBranch:
            cfg.directBranches++;
            pushEdge(pos, target, func, Edge::kBranch);
            pushEdge(pos, next, func, Edge::kFallThrough);
            break;
          case FlowKind::kJump:
            cfg.directBranches++;
            pushEdge(pos, target, func, Edge::kBranch);
            break;
          case FlowKind::kCall:
            cfg.directBranches++;
            pushEdge(pos, target, func, Edge::kCall);
            pushEdge(pos, next, func, Edge::kFallThrough);
            break;
          case FlowKind::kIndirectCall: {
            cfg.indirectSites++;
            IndirectSiteRecord rec;
            rec.offset = pos;
            rec.isJump = false;
            rec.function = fnEntry;
            if (auto it = lcByCall.find(pos); it != lcByCall.end()) {
                rec.resolved = true;
                rec.how = "lea-call";
                rec.targets.push_back(it->second.target);
                pushEdge(pos, static_cast<int64_t>(it->second.target),
                         func, Edge::kCall);
            } else if (!callUniverse.empty()) {
                // CFI-style: an indirect call goes somewhere in the
                // declared address-taken set.
                rec.resolved = true;
                rec.how = "entry-table";
                rec.targets = callUniverse;
                for (const std::size_t t : callUniverse)
                    pushEdge(pos, static_cast<int64_t>(t), func,
                             Edge::kCall);
            }
            audit.indirectSites.push_back(std::move(rec));
            pushEdge(pos, next, func, Edge::kFallThrough);
            break;
          }
          case FlowKind::kIndirectJump: {
            cfg.indirectJumps++;
            IndirectSiteRecord rec;
            rec.offset = pos;
            rec.isJump = true;
            rec.function = fnEntry;
            if (auto it = jtByJmp.find(pos); it != jtByJmp.end()) {
                const JumpTableMatch &jm = jumpTables[it->second];
                rec.resolved = true;
                rec.how = "jump-table";
                rec.tableBase = jm.tableBase;
                rec.targets = jm.targets;
                std::sort(rec.targets.begin(), rec.targets.end());
                rec.targets.erase(std::unique(rec.targets.begin(),
                                              rec.targets.end()),
                                  rec.targets.end());
                for (const std::size_t t : jm.targets)
                    pushEdge(pos, static_cast<int64_t>(t), func,
                             Edge::kBranch);
            }
            audit.indirectSites.push_back(std::move(rec));
            break;
          }
          case FlowKind::kTerminal:
            cfg.terminals++;
            break;
        }
    }
    cfg.reachableBytes = static_cast<std::size_t>(
        std::count(reachableByte.begin(), reachableByte.end(), 1));

    // ---- Guard-bypass downgrade: a compromised dispatch is not
    // bounded by its table after all.
    for (IndirectSiteRecord &rec : audit.indirectSites) {
        if (!rec.isJump || !rec.resolved)
            continue;
        auto it = jtByJmp.find(rec.offset);
        if (it != jtByJmp.end() && jtCompromised[it->second]) {
            rec.resolved = false;
            rec.how = "";
            rec.targets.clear();
        }
    }

    std::sort(audit.indirectSites.begin(), audit.indirectSites.end(),
              [](const IndirectSiteRecord &a,
                 const IndirectSiteRecord &b) {
                  return a.offset < b.offset;
              });
    std::size_t firstUnresolvedJump = n;
    for (const IndirectSiteRecord &rec : audit.indirectSites) {
        if (rec.resolved) {
            audit.resolvedSites++;
            continue;
        }
        audit.unresolvedSites++;
        if (rec.isJump)
            firstUnresolvedJump = std::min(firstUnresolvedJump,
                                           rec.offset);
        audit.functions[funcIdByEntry.at(rec.function)].unresolvedSites++;
    }
    std::sort(audit.functions.begin(), audit.functions.end(),
              [](const FunctionAudit &a, const FunctionAudit &b) {
                  return a.entry < b.entry;
              });
    audit.functionCount = audit.functions.size();

    // ---- Label each grep match once. A match that overlaps a
    // reachable forbidden instruction is executed from an entry point:
    // kAligned. Any other match is dead when the walk is sound (no
    // hole, every reachable indirect jump resolved): kUnreachable,
    // report-only. An unsound walk proves nothing dead:
    // kIndirectReachable. A reachable forbidden instruction the grep
    // missed is added as a kAligned finding.
    const bool sound = !cfg.opaque && firstUnresolvedJump == n;
    for (const ForbiddenInsn &m : grepMatches(image)) {
        CodeFinding f{m.offset, m.length, m.mnemonic,
                      sound ? FindingClass::kUnreachable
                            : FindingClass::kIndirectReachable};
        if (std::any_of(spans.begin(), spans.end(),
                        [&](const ForbiddenSpan &s) {
                            return overlaps(f, s);
                        }))
            f.cls = FindingClass::kAligned;
        report.findings.push_back(std::move(f));
    }
    for (const ForbiddenSpan &s : spans) {
        bool reported = false;
        for (const CodeFinding &f : report.findings) {
            if (f.cls == FindingClass::kAligned && overlaps(f, s)) {
                reported = true;
                break;
            }
        }
        if (!reported) {
            report.findings.push_back(CodeFinding{
                s.start, s.length, s.mnemonic, FindingClass::kAligned});
        }
    }
    std::sort(report.findings.begin(), report.findings.end(),
              [](const CodeFinding &a, const CodeFinding &b) {
                  return a.offset < b.offset;
              });

    // ---- Shortest witness path per rejecting finding: the BFS
    // parent chain from an entry point to the forbidden instruction,
    // or — for kIndirectReachable — to the unresolved site (or the
    // first undecodable reachable byte) that voids the deadness proof.
    auto chainTo = [&](std::size_t pos) {
        std::vector<std::size_t> steps;
        int64_t cur = static_cast<int64_t>(pos);
        while (cur >= 0 && steps.size() <= n) {
            steps.push_back(static_cast<std::size_t>(cur));
            if (parent[static_cast<std::size_t>(cur)] == kRoot)
                break;
            cur = parent[static_cast<std::size_t>(cur)];
            if (cur == kUnvisited)
                return std::vector<std::size_t>{};
        }
        std::reverse(steps.begin(), steps.end());
        return steps;
    };
    constexpr std::size_t kMaxWitnesses = 16;
    for (const CodeFinding &f : report.findings) {
        if (!f.rejecting() ||
            audit.witnessPaths.size() >= kMaxWitnesses)
            continue;
        WitnessPath w;
        w.findingOffset = f.offset;
        if (f.cls == FindingClass::kIndirectReachable) {
            const std::size_t cause = (firstUnresolvedJump < n)
                ? firstUnresolvedJump
                : cfg.firstOpaque;
            if (cause < n)
                w.steps = chainTo(cause);
        } else {
            for (const ForbiddenSpan &s : spans) {
                if (overlaps(f, s)) {
                    w.steps = chainTo(s.start);
                    break;
                }
            }
        }
        if (!w.steps.empty())
            audit.witnessPaths.push_back(std::move(w));
    }

    // ---- Coverage sweep, the walk's one linear decode of the
    // whole image, with the identified table bytes excluded: table
    // data is *covered* (we know exactly what it is), so decode
    // coverage reflects genuinely unexplained bytes only.
    std::size_t decoded = 0;
    std::size_t undecodable = 0;
    std::size_t insnCount = 0;
    std::size_t tableBytes = 0;
    std::size_t firstUndec = n;
    std::size_t pos = 0;
    while (pos < n) {
        if (isData[pos]) {
            tableBytes++;
            pos++;
            continue;
        }
        const auto insn = decodeAt(image, pos);
        bool crossesData = false;
        if (insn) {
            for (std::size_t b = pos; b < pos + insn->length; ++b) {
                if (isData[b]) {
                    crossesData = true;
                    break;
                }
            }
        }
        if (!insn || crossesData) {
            undecodable++;
            firstUndec = std::min(firstUndec, pos);
            pos++;
            continue;
        }
        insnCount++;
        decoded += insn->length;
        pos += insn->length;
    }
    report.decodedBytes = decoded + tableBytes;
    report.insnCount = insnCount;
    report.undecodableBytes = undecodable;
    report.firstUndecodable = (undecodable > 0) ? firstUndec : n;
    audit.tableBytes = tableBytes;
    return report;
}

} // namespace cubicleos::audit
