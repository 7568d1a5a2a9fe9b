/**
 * @file
 * Result types of the auditor's reachability walk (ipcfg.h): the
 * labelled forbidden byte sequences of one image, the walk's CFG
 * summary and its interprocedural audit record.
 */

#ifndef CUBICLEOS_AUDIT_REPORT_H_
#define CUBICLEOS_AUDIT_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cubicleos::audit {

/**
 * Label of one forbidden byte sequence found in an image, set once by
 * the reachability walk (ipcfg.h; DESIGN.md §12). The loader refuses
 * every such sequence whatever its label; the label is the walk's own
 * verdict:
 *
 *   - kAligned: the sequence overlaps a forbidden instruction some
 *     path from an entry point executes → reject;
 *   - kUnreachable: the walk is sound (no hole, every reachable
 *     indirect jump resolved) and no path executes it — bytes after
 *     a ret, a payload constant, a misaligned overlap in dead code →
 *     report-only;
 *   - kIndirectReachable: the walk is not sound (an unresolved
 *     reachable indirect jump, an undecodable reachable byte, an
 *     entry point outside the image), so it proves nothing dead →
 *     reject, even though no followed path lands on it.
 */
enum class FindingClass : uint8_t {
    kAligned,           ///< a reachable forbidden instruction
    kUnreachable,       ///< sound walk: no path from any entry point
    kIndirectReachable, ///< unsound walk: not provably dead
};

/** One forbidden byte sequence, located and classified. */
struct CodeFinding {
    std::size_t offset = 0;     ///< byte offset in the image
    std::size_t length = 0;     ///< matched pattern length
    std::string mnemonic;       ///< e.g. "wrpkru"
    FindingClass cls = FindingClass::kAligned;

    bool rejecting() const { return cls != FindingClass::kUnreachable; }
};

/**
 * Summary of the reachability walk (ipcfg.h; zeroed in a report the
 * walk did not produce). Counts cover everything the walk reached,
 * including code reached through resolved indirect edges.
 *
 * When @c opaque is true the walk hit a reachable byte it could not
 * decode (or an entry point outside the image): it proves nothing
 * dead, so every finding rejects.
 */
struct CfgSummary {
    bool ran = false;            ///< verifyImageInter was used
    bool opaque = false;         ///< walk has a hole: every finding rejects
    std::size_t firstOpaque = 0; ///< first undecodable reachable offset
    std::size_t entryCount = 0;
    std::size_t reachableInsns = 0;
    std::size_t reachableBytes = 0;
    std::size_t directBranches = 0;  ///< jcc/jmp/call edges followed
    std::size_t indirectSites = 0;   ///< call r/m seen (fall-through kept)
    std::size_t indirectJumps = 0;   ///< jmp r/m seen
    std::size_t terminals = 0;       ///< ret/hlt/ud2/int3 sinks
    std::size_t externalTargets = 0; ///< direct edges leaving the image
};

/** How the walk resolved (or failed to resolve) one indirect site. */
struct IndirectSiteRecord {
    std::size_t offset = 0;   ///< offset of the jmp/call r/m instruction
    bool isJump = false;      ///< jmp r/m (true) vs call r/m (false)
    bool resolved = false;    ///< target set statically known
    std::size_t function = 0; ///< entry offset of the containing function
    std::size_t tableBase = 0; ///< jump table offset (jump-table sites)
    std::vector<std::size_t> targets; ///< resolved target offsets, sorted
    /** How the set was obtained: "jump-table", "lea-call",
     *  "entry-table", or "" when unresolved. */
    const char *how = "";
};

/** One per-function summary from the walk's call graph. */
struct FunctionAudit {
    std::size_t entry = 0;        ///< function entry offset
    bool reachable = false;       ///< reachable from an image entry point
    std::size_t insnCount = 0;    ///< instructions assigned to it
    std::size_t unresolvedSites = 0; ///< unresolved indirect sites inside
};

/**
 * Shortest path from an entry point to what makes one finding reject:
 * the forbidden instruction it overlaps (kAligned), or the walk's
 * first hole, an unresolved indirect jump or undecodable byte
 * (kIndirectReachable).
 */
struct WitnessPath {
    std::size_t findingOffset = 0;      ///< offset of the finding reached
    std::vector<std::size_t> steps;     ///< insn offsets, entry first
};

/**
 * The walk's interprocedural audit record for one image. Zeroed unless
 * @c ran is set (verifyImageInter was used).
 */
struct ImageAudit {
    bool ran = false;
    std::size_t functionCount = 0;
    std::size_t resolvedSites = 0;   ///< indirect sites with known targets
    std::size_t unresolvedSites = 0; ///< residual opaque indirect sites
    std::size_t tableBytes = 0;      ///< bytes identified as table data
    std::vector<FunctionAudit> functions;      ///< sorted by entry
    std::vector<IndirectSiteRecord> indirectSites; ///< sorted by offset
    std::vector<WitnessPath> witnessPaths;     ///< per rejecting finding

    /** Fraction of indirect sites left unresolved (0 when none seen). */
    double unresolvedRate() const
    {
        const std::size_t total = resolvedSites + unresolvedSites;
        if (total == 0)
            return 0.0;
        return static_cast<double>(unresolvedSites) /
               static_cast<double>(total);
    }
};

/** Result of verifying one component image. */
struct VerifierReport {
    std::size_t imageBytes = 0;
    std::size_t decodedBytes = 0;      ///< bytes covered by decoded insns
    std::size_t insnCount = 0;
    std::size_t undecodableBytes = 0;  ///< gaps the coverage sweep skips
    /** Offset of the first undecodable byte, or imageBytes if none. */
    std::size_t firstUndecodable = 0;
    std::vector<CodeFinding> findings;
    CfgSummary cfg;
    ImageAudit audit; ///< the walk's record (audit.ran false unless it ran)

    /** True when no finding forces a reject. */
    bool accepted() const
    {
        for (const CodeFinding &f : findings) {
            if (f.rejecting())
                return false;
        }
        return true;
    }

    /** Report-only (kUnreachable) findings. */
    std::size_t reportedCount() const
    {
        std::size_t n = 0;
        for (const CodeFinding &f : findings)
            n += f.rejecting() ? 0 : 1;
        return n;
    }

    /** Rejecting findings. */
    std::size_t rejectingCount() const
    {
        return findings.size() - reportedCount();
    }

    /** Fraction of image bytes covered by decoded instructions. */
    double decodeCoverage() const
    {
        if (imageBytes == 0)
            return 1.0;
        return static_cast<double>(decodedBytes) /
               static_cast<double>(imageBytes);
    }

    /** Fraction of image bytes the walk reached (0 if it did not run). */
    double reachableCoverage() const
    {
        if (!cfg.ran || imageBytes == 0)
            return 0.0;
        return static_cast<double>(cfg.reachableBytes) /
               static_cast<double>(imageBytes);
    }
};

} // namespace cubicleos::audit

#endif // CUBICLEOS_AUDIT_REPORT_H_
