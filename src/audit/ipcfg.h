/**
 * @file
 * The auditor's reachability walk over a code image.
 *
 * The loader's verdict is the conservative byte-grep (core/codescan.h):
 * it refuses every forbidden byte sequence, wherever it sits. A
 * position in the image is not a path the machine runs, so the walk,
 * outside the trusted core, says which of those sequences would
 * execute, and records the image's control flow for the audit. It
 * builds one control-flow graph over the image and walks it
 * breadth-first from every exported entry point:
 *
 *   - fall-through edges from every sequential instruction;
 *   - `jcc rel8/rel32`: target + fall-through;
 *   - `jmp rel8/rel32`: target only;
 *   - `call rel32`: target (a new function) + fall-through;
 *   - `ret` / `hlt` / `ud2` / `int3`: sinks, no successor; so is a
 *     reachable forbidden instruction (the load is already lost);
 *   - a direct edge leaving the image is an external sink (imports go
 *     through relocated call stubs);
 *   - `jmp r/m`: the compiler's bounded-switch jump-table idiom
 *     (cmp/ja guard, rip-relative lea of the table base, movsxd of a
 *     scaled 32-bit entry, add, jmp reg) resolves to the exact target
 *     set the table encodes, and those edges are followed; any other
 *     indirect jump is an unresolved sink. The resolution holds only
 *     while the idiom is entered through its guard: an entry point,
 *     or any edge other than the idiom's own fall-through, that lands
 *     strictly inside it (its own ja and its own table included)
 *     leaves the jump unresolved;
 *   - `call r/m`: fall-through, plus the one target of a rip-relative
 *     `lea reg, [rip+disp]` immediately followed by `call reg`, or
 *     else every entry of the builder-declared tables
 *     (ComponentSpec::indirectTables), the way a CFI-instrumented
 *     build publishes its address-taken set. Otherwise the callee is
 *     unresolved; the call keeps its fall-through (calls are confined
 *     to published entry slots by the cross-call trampoline) and is
 *     counted and listed in the audit record.
 *
 * The walk is *sound* when it has no hole (every reachable byte
 * decodes and every entry point lies in the image; otherwise it is
 * *opaque*) and every reachable indirect jump is resolved. Each grep
 * match is then labelled once. The loader refuses every match whatever
 * its label; the label says whether a path executes it:
 *
 *   - kAligned if it overlaps a reachable forbidden instruction (and a
 *     reachable forbidden instruction the grep missed is added as
 *     one);
 *   - otherwise kUnreachable if the walk is sound: no path from an
 *     entry point executes it (a payload constant, dead code);
 *   - otherwise kIndirectReachable: the walk cannot prove the bytes
 *     dead.
 *
 * kAligned and kIndirectReachable are the walk's own rejections
 * (VerifierReport::accepted); the differential tests check that the
 * grep is never looser than them.
 *
 * The walk also fills CfgSummary and the per-image ImageAudit
 * (report.h): the function partition, every indirect site with its
 * resolution, the bytes identified as jump-table data, and a shortest
 * witness path from an entry point for every rejecting finding (to
 * the forbidden instruction, or to the hole). A final linear sweep
 * over the image, with table data excluded, measures decode coverage.
 */

#ifndef CUBICLEOS_AUDIT_IPCFG_H_
#define CUBICLEOS_AUDIT_IPCFG_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "audit/report.h"
#include "core/codescan.h"
#include "core/component.h"

namespace cubicleos::audit {

/**
 * One matched bounded-switch jump table (see matchJumpTable).
 * Offsets are image-relative, like everything in the walk.
 */
struct JumpTableMatch {
    bool matched = false;
    std::size_t idiomStart = 0; ///< offset of the cmp guard
    std::size_t jmpOffset = 0;  ///< offset of the dispatching jmp reg
    std::size_t idiomEnd = 0;   ///< offset just past the jmp
    std::size_t tableBase = 0;  ///< offset of the entry table
    std::size_t count = 0;      ///< entries (guard bound + 1)
    /** Decoded dispatch targets: tableBase + entry value, in table
     *  order (duplicates kept — the soundness property tests compare
     *  against a brute-force interpreter over every index). */
    std::vector<std::size_t> targets;
};

/**
 * Matches the bounded-switch dispatch idiom starting at @p pos:
 *
 *   cmp rax, imm8/imm32        48 83 F8 ib | 48 3D id
 *   ja  default                77 rel8     | 0F 87 rel32
 *   lea reg, [rip+disp32]      48/4C 8D /r (mod=00, rm=101)
 *   movsxd reg, [reg+reg*4]    48 63 /r (SIB, scale=4)
 *   add reg, reg               48 01 /r (mod=3)
 *   jmp reg                    FF /4 (mod=3)
 *
 * and decodes the table the lea addresses: (bound+1) little-endian
 * 32-bit entries, each a target offset relative to the table base.
 * Returns an unmatched result if any instruction deviates from the
 * shape, the bound is implausibly large, or the table or any target
 * falls outside the image.
 */
JumpTableMatch matchJumpTable(std::span<const uint8_t> image,
                              std::size_t pos);

/** One matched lea/call singleton (see matchLeaCall). */
struct LeaCallMatch {
    bool matched = false;
    std::size_t callOffset = 0; ///< offset of the call reg
    std::size_t idiomEnd = 0;   ///< offset just past the call
    std::size_t target = 0;     ///< resolved callee offset
};

/**
 * Matches `lea reg, [rip+disp32]` (48/4C 8D /r, mod=00, rm=101)
 * immediately followed by `call reg` (FF /2, mod=3) on the same
 * register, starting at @p pos. The resolved target is the lea's
 * rip-relative destination (end of lea + disp32); out-of-image
 * targets do not match.
 */
LeaCallMatch matchLeaCall(std::span<const uint8_t> image,
                          std::size_t pos);

/**
 * Every match of the loader's byte-grep in @p image, in image order:
 * core::scanCodeImage run again past each match, so the matches never
 * overlap and a sequence is reported once, not at every sub-position.
 * These are the findings the walk labels.
 */
std::vector<core::ForbiddenInsn> grepMatches(std::span<const uint8_t> image);

/**
 * Verifies @p image: the byte-grep, the walk from @p entryPoints and
 * the labelling described in the file header.
 *
 * @param entryPoints exported entry offsets; an empty span seeds the
 *        walk at offset 0. An out-of-range entry makes the walk
 *        opaque; it does not throw.
 * @param tables the builder's declared indirect-call target tables
 *        (may be empty).
 * @return report with cfg.ran and audit.ran set; decodedBytes counts
 *         identified table bytes as covered data.
 */
VerifierReport verifyImageInter(std::span<const uint8_t> image,
                                std::span<const std::size_t> entryPoints,
                                std::span<const core::EntryTable> tables);

} // namespace cubicleos::audit

#endif // CUBICLEOS_AUDIT_IPCFG_H_
