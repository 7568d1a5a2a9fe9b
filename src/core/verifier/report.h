/**
 * @file
 * Verifier result types: per-image code findings and the load report
 * threaded from the loader through Monitor/System into Stats.
 */

#ifndef CUBICLEOS_CORE_VERIFIER_REPORT_H_
#define CUBICLEOS_CORE_VERIFIER_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cubicleos::core::verifier {

/**
 * Classification of one forbidden byte sequence found in an image.
 *
 * The classes encode the reject/report policy (DESIGN.md §"Load-time
 * verification"): aligned and misaligned-reachable sequences are
 * executable by the component and must be rejected; a sequence wholly
 * inside one instruction's displacement/immediate payload is a
 * compiler constant no in-image control flow reaches, and is recorded
 * for audit instead.
 *
 * kUnreachable and kIndirectReachable are produced only by the
 * reachability walk (ipcfg.h). kUnreachable: a sequence the linear
 * sweep would reject but that no path the walk follows from an
 * exported entry point executes — e.g. bytes after an unconditional
 * ret, or a misaligned overlap in dead code; never assigned when the
 * walk is opaque. Like kEmbedded it is report-only.
 * kIndirectReachable: a reachable indirect jump stays *unresolved* (or
 * the walk is opaque), so the walk cannot prove the forbidden bytes
 * dead — the finding rejects even though no followed path lands on
 * it.
 */
enum class FindingClass : uint8_t {
    kAligned,             ///< starts on an instruction boundary
    kMisalignedReachable, ///< overlaps structural bytes / undecoded region
    kEmbedded,            ///< wholly inside one instruction's payload
    kUnreachable,         ///< walk: no path from any entry point
    kIndirectReachable,   ///< walk: unresolved indirect flow nearby
};

/** Human-readable class name. */
const char *findingClassName(FindingClass cls);

/** One forbidden byte sequence, located and classified. */
struct CodeFinding {
    std::size_t offset = 0;     ///< byte offset in the image
    std::size_t length = 0;     ///< matched pattern length
    std::string mnemonic;       ///< e.g. "wrpkru"
    FindingClass cls = FindingClass::kMisalignedReachable;

    bool rejecting() const
    {
        return cls == FindingClass::kAligned ||
               cls == FindingClass::kMisalignedReachable ||
               cls == FindingClass::kIndirectReachable;
    }
};

/**
 * One relocation-like indirect-call target table supplied by the
 * builder in @c ComponentSpec::indirectTables: @c count 4-byte
 * little-endian image offsets starting at @c offset. Pass 3 treats
 * the union of all table entries as the target set of every indirect
 * *call* site (calls are CFI-confined to published entry slots), and
 * treats the table bytes themselves as data, not code.
 */
struct EntryTable {
    std::size_t offset = 0; ///< byte offset of the table in the image
    std::size_t count = 0;  ///< number of 4-byte entries

    bool operator==(const EntryTable &) const = default;
};

/**
 * Summary of the reachability walk (ipcfg.h; zeroed when only the
 * linear sweep ran). Counts cover everything the walk reached,
 * including code reached through resolved indirect edges.
 *
 * When @c opaque is true the walk hit a reachable byte it could not
 * decode (or an entry point outside the image): it proves nothing
 * dead, so the report keeps the conservative pass-1 classes and every
 * finding rejects.
 */
struct CfgSummary {
    bool ran = false;            ///< verifyImageInter was used
    bool opaque = false;         ///< walk has a hole, pass-1 classes kept
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

/** How pass 3 resolved (or failed to resolve) one indirect site. */
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

/** One per-function summary from the pass-3 call-graph walk. */
struct FunctionAudit {
    std::size_t entry = 0;        ///< function entry offset
    bool reachable = false;       ///< reachable from an image entry point
    std::size_t insnCount = 0;    ///< instructions assigned to it
    std::size_t unresolvedSites = 0; ///< unresolved indirect sites inside
};

/** Shortest entry→forbidden-instruction path for one rejecting finding. */
struct WitnessPath {
    std::size_t findingOffset = 0;      ///< offset of the finding reached
    std::vector<std::size_t> steps;     ///< insn offsets, entry first
};

/**
 * Pass-3 (interprocedural) audit record for one image. Zeroed unless
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
    std::size_t undecodableBytes = 0;  ///< gap bytes skipped by the sweep
    /** Offset of the first undecodable byte, or imageBytes if none. */
    std::size_t firstUndecodable = 0;
    std::vector<CodeFinding> findings;
    CfgSummary cfg;
    ImageAudit audit; ///< pass-3 record (audit.ran false unless pass 3 ran)

    /** True when no finding forces a reject. */
    bool accepted() const
    {
        for (const CodeFinding &f : findings) {
            if (f.rejecting())
                return false;
        }
        return true;
    }

    /** First rejecting finding, or nullptr when accepted. */
    const CodeFinding *firstRejecting() const
    {
        for (const CodeFinding &f : findings) {
            if (f.rejecting())
                return &f;
        }
        return nullptr;
    }

    /** Report-only (embedded) findings. */
    std::size_t embeddedCount() const
    {
        std::size_t n = 0;
        for (const CodeFinding &f : findings)
            n += f.rejecting() ? 0 : 1;
        return n;
    }

    /** Rejecting findings. */
    std::size_t rejectingCount() const
    {
        return findings.size() - embeddedCount();
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

} // namespace cubicleos::core::verifier

#endif // CUBICLEOS_CORE_VERIFIER_REPORT_H_
