/**
 * @file
 * Minimal x86-64 instruction-length decoder for the load-time verifier.
 *
 * Decodes the compiler-emitted subset our synthesized images and tests
 * use: legacy/REX prefixes, ModRM/SIB addressing, displacement and
 * immediate sizing, the one-byte ALU/mov/push/pop/branch groups, the
 * group-2 shifts/rotates, the string ops (with rep prefixes), and the
 * two-byte 0F map entries real code leans on — SSE moves and packed
 * arithmetic, movzx/movsx, cmov/setcc, plus the isolation-relevant
 * entries (syscall, sysenter, the 0F 01 and 0F AE groups). AVX code is
 * covered through the VEX prefixes: the 2-byte (c5) form implies the
 * 0F map, the 3-byte (c4) form selects 0F/0F38/0F3A via its escape-map
 * field, and the map fixes the immediate size (0F38 none, 0F3A imm8),
 * so instruction length follows without per-opcode tables. AVX-512 is
 * covered the same way through the 4-byte EVEX (62) prefix: its P0
 * byte selects the escape map like VEX.mmmmm, so the VEX length rules
 * apply unchanged (EVEX adds no immediates, and disp8*N compression
 * rescales the displacement's meaning, not its width). Anything
 * outside the subset is *undecodable*: the caller must treat such
 * bytes conservatively (reject-on-reach), never optimistically. So are
 * encodings whose length differs between vendors: a 0x66-prefixed
 * near call/jmp/jcc (rel32 on Intel, rel16 on AMD) and 8F with
 * ModRM.reg != 0 (XOP on AMD, #UD on Intel).
 *
 * The decoder answers four questions per instruction:
 *   - how long is it (so a sweep or walk can find the next boundary)?
 *   - where do its data bytes (displacement + immediate) start, so a
 *     forbidden byte pattern can be classified as embedded-in-constant
 *     versus overlapping structural opcode bytes?
 *   - is it itself a forbidden, isolation-subverting instruction?
 *   - how does control leave it (fall through, direct branch, indirect
 *     sink), so the reachability pass can build a branch graph?
 */

#ifndef CUBICLEOS_CORE_VERIFIER_INSN_H_
#define CUBICLEOS_CORE_VERIFIER_INSN_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

namespace cubicleos::core::verifier {

/** Architectural maximum x86 instruction length. */
inline constexpr std::size_t kMaxInsnLen = 15;

/** How control flow leaves an instruction (CFG successor shape). */
enum class FlowKind : uint8_t {
    kSequential,   ///< falls through to the next instruction only
    kBranch,       ///< conditional direct branch: target + fall-through
    kJump,         ///< unconditional direct jump: target only
    kCall,         ///< direct call: target + fall-through
    kIndirectCall, ///< call r/m: unknown target, falls through
    kIndirectJump, ///< jmp r/m: unknown target, no fall-through
    kTerminal,     ///< ret / hlt / ud2 / int3: no successor
};

/** One decoded instruction. */
struct Insn {
    /** Total length in bytes (prefixes through last immediate byte). */
    uint8_t length = 0;
    /**
     * Offset of the first displacement/immediate byte within the
     * instruction; equals @c length when the instruction carries no
     * data bytes. Bytes in [payloadOff, length) are compiler-chosen
     * constants, not structural encoding.
     */
    uint8_t payloadOff = 0;
    /** Decodes to an isolation-subverting instruction (wrpkru, ...). */
    bool forbidden = false;
    /** rel8/rel32 direct jump, call or jcc. */
    bool isDirectBranch = false;
    /** Sign-extended branch displacement (valid iff isDirectBranch). */
    int32_t branchRel = 0;
    /** Successor shape for the reachability walk. */
    FlowKind flow = FlowKind::kSequential;
    /** Static mnemonic (coarse; "insn" for generic group members). */
    const char *mnemonic = "insn";
};

/**
 * Decodes the instruction starting at @p pos.
 *
 * @return the decoded instruction, or no value if the bytes are
 *         truncated or outside the supported subset (undecodable).
 */
std::optional<Insn> decodeAt(std::span<const uint8_t> image,
                             std::size_t pos);

} // namespace cubicleos::core::verifier

#endif // CUBICLEOS_CORE_VERIFIER_INSN_H_
