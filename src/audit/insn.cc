#include "audit/insn.h"

namespace cubicleos::audit {

namespace {

/** Structural size of a ModRM-encoded operand (modrm + sib + disp). */
struct ModRmEnc {
    uint8_t structBytes = 1; ///< modrm byte, plus SIB when present
    uint8_t dispBytes = 0;
    uint8_t mod = 0;
    uint8_t reg = 0;
    uint8_t rm = 0;
};

std::optional<ModRmEnc>
parseModRm(std::span<const uint8_t> image, std::size_t pos)
{
    if (pos >= image.size())
        return std::nullopt;
    ModRmEnc enc;
    const uint8_t m = image[pos];
    enc.mod = m >> 6;
    enc.reg = (m >> 3) & 7;
    enc.rm = m & 7;
    if (enc.mod == 3)
        return enc;
    if (enc.rm == 4) { // SIB follows
        if (pos + 1 >= image.size())
            return std::nullopt;
        enc.structBytes = 2;
        const uint8_t base = image[pos + 1] & 7;
        if (enc.mod == 0 && base == 5)
            enc.dispBytes = 4;
    } else if (enc.mod == 0 && enc.rm == 5) {
        enc.dispBytes = 4; // RIP-relative
    }
    if (enc.mod == 1)
        enc.dispBytes = 1;
    else if (enc.mod == 2)
        enc.dispBytes = 4;
    return enc;
}

/** Reads a little-endian rel8/rel32 branch displacement. */
int32_t
readRel(std::span<const uint8_t> image, std::size_t pos, unsigned bytes)
{
    if (bytes == 1)
        return static_cast<int8_t>(image[pos]);
    uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(image[pos + i]) << (8 * i);
    return static_cast<int32_t>(v);
}

/** Shape of one opcode: operand encoding and immediate class. */
struct OpSpec {
    bool valid = false;
    bool hasModRm = false;
    /** 0, 1, 2, 4 bytes; kImmZ/kImmV resolve against prefixes. */
    int imm = 0;
    bool forbidden = false;
    bool branch = false;     ///< rel8/rel32 direct branch
    int branchBytes = 0;     ///< 1 or 4
    FlowKind flow = FlowKind::kSequential;
    const char *mnemonic = "insn";
};

constexpr int kImmZ = -1; ///< imm16/imm32 by operand size
constexpr int kImmV = -2; ///< imm16/imm32/imm64 (B8..BF)

OpSpec
specOneByte(uint8_t op)
{
    OpSpec s;
    s.valid = true;
    // The 00-3F ALU block: eight groups of eight; /0../3 take ModRM,
    // /4 imm8, /5 immZ, /6 and /7 are 64-bit-invalid (pop/push seg,
    // BCD adjusts) or prefixes/escape handled by the caller.
    if (op <= 0x3D && (op & 7) <= 5) {
        const uint8_t low = op & 7;
        if (low <= 3)
            s.hasModRm = true;
        else if (low == 4)
            s.imm = 1;
        else
            s.imm = kImmZ;
        s.mnemonic = "alu";
        return s;
    }
    if (op >= 0x50 && op <= 0x57) { s.mnemonic = "push"; return s; }
    if (op >= 0x58 && op <= 0x5F) { s.mnemonic = "pop"; return s; }
    if (op >= 0x70 && op <= 0x7F) {
        s.branch = true;
        s.branchBytes = 1;
        s.imm = 1;
        s.flow = FlowKind::kBranch;
        s.mnemonic = "jcc";
        return s;
    }
    if (op >= 0x91 && op <= 0x97) { s.mnemonic = "xchg"; return s; }
    // String ops; rep/repne arrive as legacy prefixes.
    if (op >= 0xA4 && op <= 0xAF && op != 0xA8 && op != 0xA9) {
        s.mnemonic = "string";
        return s;
    }
    if (op >= 0xB0 && op <= 0xB7) { s.imm = 1; s.mnemonic = "mov"; return s; }
    if (op >= 0xB8 && op <= 0xBF) {
        s.imm = kImmV;
        s.mnemonic = "mov";
        return s;
    }
    switch (op) {
      case 0x63: s.hasModRm = true; s.mnemonic = "movsxd"; return s;
      case 0x68: s.imm = kImmZ; s.mnemonic = "push"; return s;
      case 0x69: s.hasModRm = true; s.imm = kImmZ; s.mnemonic = "imul"; return s;
      case 0x6A: s.imm = 1; s.mnemonic = "push"; return s;
      case 0x6B: s.hasModRm = true; s.imm = 1; s.mnemonic = "imul"; return s;
      case 0x80: s.hasModRm = true; s.imm = 1; s.mnemonic = "grp1"; return s;
      case 0x81: s.hasModRm = true; s.imm = kImmZ; s.mnemonic = "grp1"; return s;
      case 0x83: s.hasModRm = true; s.imm = 1; s.mnemonic = "grp1"; return s;
      case 0x84: case 0x85: s.hasModRm = true; s.mnemonic = "test"; return s;
      case 0x86: case 0x87: s.hasModRm = true; s.mnemonic = "xchg"; return s;
      case 0x88: case 0x89: case 0x8A: case 0x8B:
        s.hasModRm = true; s.mnemonic = "mov"; return s;
      case 0x8D: s.hasModRm = true; s.mnemonic = "lea"; return s;
      case 0x8F: s.hasModRm = true; s.mnemonic = "pop"; return s;
      case 0x90: s.mnemonic = "nop"; return s;
      case 0x98: s.mnemonic = "cwde"; return s;
      case 0x99: s.mnemonic = "cdq"; return s;
      case 0xA8: s.imm = 1; s.mnemonic = "test"; return s;
      case 0xA9: s.imm = kImmZ; s.mnemonic = "test"; return s;
      // Group 2 shifts/rotates (rol..sar by imm8, 1 or cl).
      case 0xC0: s.hasModRm = true; s.imm = 1; s.mnemonic = "shift"; return s;
      case 0xC1: s.hasModRm = true; s.imm = 1; s.mnemonic = "shift"; return s;
      case 0xD0: case 0xD1: case 0xD2: case 0xD3:
        s.hasModRm = true; s.mnemonic = "shift"; return s;
      case 0xC2:
        s.imm = 2; s.flow = FlowKind::kTerminal; s.mnemonic = "ret";
        return s;
      case 0xC3: s.flow = FlowKind::kTerminal; s.mnemonic = "ret"; return s;
      case 0xC6: s.hasModRm = true; s.imm = 1; s.mnemonic = "mov"; return s;
      case 0xC7: s.hasModRm = true; s.imm = kImmZ; s.mnemonic = "mov"; return s;
      case 0xC9: s.mnemonic = "leave"; return s;
      case 0xCC: s.flow = FlowKind::kTerminal; s.mnemonic = "int3"; return s;
      case 0xCD: s.imm = 1; s.mnemonic = "int"; return s;
      case 0xE8:
        s.branch = true; s.branchBytes = 4; s.imm = 4;
        s.flow = FlowKind::kCall;
        s.mnemonic = "call";
        return s;
      case 0xE9:
        s.branch = true; s.branchBytes = 4; s.imm = 4;
        s.flow = FlowKind::kJump;
        s.mnemonic = "jmp";
        return s;
      case 0xEB:
        s.branch = true; s.branchBytes = 1; s.imm = 1;
        s.flow = FlowKind::kJump;
        s.mnemonic = "jmp";
        return s;
      case 0xF4: s.flow = FlowKind::kTerminal; s.mnemonic = "hlt"; return s;
      case 0xF6: case 0xF7: s.hasModRm = true; s.mnemonic = "grp3"; return s;
      case 0xFE: case 0xFF: s.hasModRm = true; s.mnemonic = "grp5"; return s;
      default:
        s.valid = false;
        return s;
    }
}

OpSpec
specTwoByte(uint8_t op)
{
    OpSpec s;
    s.valid = true;
    // SSE/SSE2 moves and unpacks (movups/movlps/movhps/unpck...,
    // movaps + conversions/comparisons, movd/movq/movdqa under their
    // 66/F3 prefixes). All plain ModRM operands; VEX forms are a
    // different encoding and stay undecodable.
    if (op >= 0x10 && op <= 0x17) { s.hasModRm = true; s.mnemonic = "ssemov"; return s; }
    if (op >= 0x28 && op <= 0x2F) { s.hasModRm = true; s.mnemonic = "ssemov"; return s; }
    if (op >= 0x40 && op <= 0x4F) { s.hasModRm = true; s.mnemonic = "cmov"; return s; }
    // Packed single/double arithmetic (sqrtps..maxps block).
    if (op >= 0x51 && op <= 0x5F) { s.hasModRm = true; s.mnemonic = "ssearith"; return s; }
    // punpck/packss/pcmpgt/movd/movdqa block.
    if (op >= 0x60 && op <= 0x6F) { s.hasModRm = true; s.mnemonic = "sse"; return s; }
    // Groups 12-14: packed shifts by imm8 (psrlw xmm, imm8, ...).
    if (op >= 0x71 && op <= 0x73) {
        s.hasModRm = true; s.imm = 1; s.mnemonic = "sseshift"; return s;
    }
    if (op >= 0x74 && op <= 0x76) { s.hasModRm = true; s.mnemonic = "pcmpeq"; return s; }
    if (op >= 0x80 && op <= 0x8F) {
        s.branch = true;
        s.branchBytes = 4;
        s.imm = 4;
        s.flow = FlowKind::kBranch;
        s.mnemonic = "jcc";
        return s;
    }
    if (op >= 0x90 && op <= 0x9F) { s.hasModRm = true; s.mnemonic = "setcc"; return s; }
    if (op >= 0xC8 && op <= 0xCF) { s.mnemonic = "bswap"; return s; }
    switch (op) {
      case 0x05: s.forbidden = true; s.mnemonic = "syscall"; return s;
      case 0x0B: s.flow = FlowKind::kTerminal; s.mnemonic = "ud2"; return s;
      case 0x1E: s.hasModRm = true; s.mnemonic = "endbr"; return s;
      case 0x1F: s.hasModRm = true; s.mnemonic = "nop"; return s;
      case 0x34: s.forbidden = true; s.mnemonic = "sysenter"; return s;
      case 0x70: s.hasModRm = true; s.imm = 1; s.mnemonic = "pshuf"; return s;
      case 0x7E: case 0x7F: s.hasModRm = true; s.mnemonic = "ssemov"; return s;
      case 0xA2: s.mnemonic = "cpuid"; return s;
      case 0xAF: s.hasModRm = true; s.mnemonic = "imul"; return s;
      case 0xB6: case 0xB7: s.hasModRm = true; s.mnemonic = "movzx"; return s;
      case 0xBE: case 0xBF: s.hasModRm = true; s.mnemonic = "movsx"; return s;
      case 0xC6: s.hasModRm = true; s.imm = 1; s.mnemonic = "shufps"; return s;
      case 0xD6: s.hasModRm = true; s.mnemonic = "ssemov"; return s;
      case 0xEF: s.hasModRm = true; s.mnemonic = "pxor"; return s;
      default:
        s.valid = false;
        return s;
    }
}

} // namespace

std::optional<Insn>
decodeAt(std::span<const uint8_t> image, std::size_t pos)
{
    const std::size_t n = image.size();
    if (pos >= n)
        return std::nullopt;

    std::size_t i = pos;
    bool opsize16 = false;
    bool rexW = false;

    // Legacy prefixes in any order, then an optional REX byte.
    while (i < n && i - pos < kMaxInsnLen) {
        const uint8_t b = image[i];
        if (b == 0x66) { opsize16 = true; ++i; continue; }
        if (b == 0x67 || b == 0xF0 || b == 0xF2 || b == 0xF3 ||
            b == 0x2E || b == 0x36 || b == 0x3E || b == 0x26 ||
            b == 0x64 || b == 0x65) {
            ++i;
            continue;
        }
        if ((b & 0xF0) == 0x40) { // REX
            rexW = (b & 0x08) != 0;
            ++i;
        }
        break;
    }
    if (i >= n || i - pos >= kMaxInsnLen)
        return std::nullopt;

    Insn insn;
    OpSpec spec;
    std::size_t opcodeLen = 1;
    const uint8_t op = image[i];

    if (op == 0xC5 || op == 0xC4) {
        // VEX prefix — always VEX in 64-bit mode (the LES/LDS forms
        // these opcodes had in 32-bit mode are invalid). The 2-byte
        // form (c5 RvvvvLpp) implies escape map 1 (0F); the 3-byte
        // form (c4 RXBmmmmm WvvvvLpp) selects the map explicitly, and
        // the map determines the length: map 2 (0F 38) never carries
        // an immediate, map 3 (0F 3A) always carries imm8.
        const std::size_t vexBytes = (op == 0xC5) ? 2 : 3;
        if (i + vexBytes >= n) // prefix bytes plus the opcode byte
            return std::nullopt;
        uint8_t map = 1;
        if (op == 0xC4) {
            map = image[i + 1] & 0x1F; // mmmmm escape-map selector
            if (map < 1 || map > 3)
                return std::nullopt; // reserved map
        }
        const uint8_t vop = image[i + vexBytes];
        opcodeLen = vexBytes + 1;
        if (map == 1) {
            // Reuse the 0F-map table, restricted to its plain
            // sequential ModRM entries: the branch/system/forbidden
            // rows have no VEX forms, so a VEX encoding of one is
            // undecodable rather than trusted with a guessed length.
            spec = specTwoByte(vop);
            if (!spec.valid || !spec.hasModRm || spec.branch ||
                spec.forbidden || spec.flow != FlowKind::kSequential)
                return std::nullopt;
        } else {
            spec.valid = true;
            spec.hasModRm = true;
            if (map == 3)
                spec.imm = 1;
            spec.mnemonic = "avx";
        }
        // VEX.pp replaces the legacy 66/F2/F3 prefixes and VEX.W
        // replaces REX.W for operand sizing; neither resizes any
        // immediate in the subset above (imm8 only).
        opsize16 = false;
        rexW = false;
    } else if (op == 0x62) {
        // EVEX prefix — always EVEX in 64-bit mode (BOUND is invalid).
        // Layout: 62 P0 P1 P2 opcode modrm... P0's low bits select the
        // escape map exactly like VEX.mmmmm, so the VEX map rules give
        // the length: map 1 reuses the 0F table restricted to plain
        // sequential ModRM entries, map 2 (0F 38) carries no
        // immediate, map 3 (0F 3A) carries imm8. disp8*N compression
        // rescales a disp8's meaning but not its width, so ModRM
        // sizing is unchanged. Encodings with reserved bits set are
        // not EVEX instructions and stay undecodable.
        if (i + 4 >= n) // 62 + P0 P1 P2 + at least the opcode byte
            return std::nullopt;
        const uint8_t p0 = image[i + 1];
        const uint8_t p1 = image[i + 2];
        const uint8_t map = p0 & 0x07; // mmm escape-map selector
        if (map < 1 || map > 3)
            return std::nullopt; // reserved / unsupported map (map5/6)
        if ((p0 & 0x08) != 0)    // P0[3] must be 0
            return std::nullopt;
        if ((p1 & 0x04) == 0)    // P1[2] is a fixed 1 bit
            return std::nullopt;
        const uint8_t vop = image[i + 4];
        opcodeLen = 5; // 62 P0 P1 P2 opcode
        if (map == 1) {
            spec = specTwoByte(vop);
            if (!spec.valid || !spec.hasModRm || spec.branch ||
                spec.forbidden || spec.flow != FlowKind::kSequential)
                return std::nullopt;
        } else {
            spec.valid = true;
            spec.hasModRm = true;
            if (map == 3)
                spec.imm = 1;
        }
        spec.mnemonic = "avx512";
        // EVEX.pp/EVEX.W replace the legacy prefixes, as with VEX.
        opsize16 = false;
        rexW = false;
    } else if (op == 0x0F) { // two-byte map
        if (i + 1 >= n)
            return std::nullopt;
        const uint8_t op2 = image[i + 1];
        opcodeLen = 2;

        if (op2 == 0x01) {
            // 0F 01 group: only the two isolation-relevant register
            // forms are in the subset; the rest (sgdt, sidt, ...) are
            // system instructions we conservatively refuse to decode.
            if (i + 2 >= n)
                return std::nullopt;
            const uint8_t m = image[i + 2];
            if (m != 0xEF && m != 0xD1)
                return std::nullopt;
            spec.valid = true;
            spec.hasModRm = true;
            spec.forbidden = true;
            spec.mnemonic = (m == 0xEF) ? "wrpkru" : "xsetbv";
        } else if (op2 == 0xAE) {
            // 0F AE group: xsave family (memory forms) and fences
            // (register forms). xrstor (/5 mem) restores XSAVE state
            // including PKRU, so it is forbidden.
            auto enc = parseModRm(image, i + 2);
            if (!enc)
                return std::nullopt;
            spec.valid = true;
            spec.hasModRm = true;
            if (enc->mod == 3) {
                if (enc->reg < 5) // only lfence/mfence/sfence decode
                    return std::nullopt;
                spec.mnemonic = "fence";
            } else {
                spec.forbidden = (enc->reg == 5);
                spec.mnemonic = spec.forbidden ? "xrstor" : "xsave";
            }
        } else {
            spec = specTwoByte(op2);
        }
    } else {
        spec = specOneByte(op);
    }
    if (!spec.valid)
        return std::nullopt;
    // Vendor-divergent length: Intel ignores 0x66 on a near rel32
    // call/jmp/jcc, AMD (which also ships MPK) reads a rel16. Opaque,
    // so a reachable one is a hole in the walk and every finding
    // rejects.
    if (opsize16 && spec.branch && spec.branchBytes == 4)
        return std::nullopt;

    std::size_t len = (i - pos) + opcodeLen;
    std::size_t payload = len;

    if (spec.hasModRm) {
        auto enc = parseModRm(image, i + opcodeLen);
        if (!enc)
            return std::nullopt;
        // 8F /1-/7 is the XOP escape on AMD and #UD on Intel, not pop.
        if (op == 0x8F && enc->reg != 0)
            return std::nullopt;
        len += enc->structBytes;
        payload = len;
        len += enc->dispBytes;
        // grp3 test r/m, imm carries an immediate on /0 and /1.
        if (spec.mnemonic[0] == 'g' && (op == 0xF6 || op == 0xF7) &&
            enc->reg <= 1) {
            spec.imm = (op == 0xF6) ? 1 : kImmZ;
        }
        // grp5 splits by /reg: call r/m falls through past the call
        // site; jmp r/m transfers to an unknowable target (indirect
        // sink for the reachability walk).
        if (op == 0xFF) {
            if (enc->reg == 2 || enc->reg == 3) {
                spec.flow = FlowKind::kIndirectCall;
                spec.mnemonic = "call";
            } else if (enc->reg == 4 || enc->reg == 5) {
                spec.flow = FlowKind::kIndirectJump;
                spec.mnemonic = "jmp";
            }
        }
    }

    int immBytes = spec.imm;
    if (immBytes == kImmZ)
        immBytes = (opsize16 && !rexW) ? 2 : 4; // REX.W overrides 0x66
    else if (immBytes == kImmV)
        immBytes = rexW ? 8 : (opsize16 ? 2 : 4);
    len += static_cast<std::size_t>(immBytes);

    if (len > kMaxInsnLen || pos + len > n)
        return std::nullopt;

    insn.length = static_cast<uint8_t>(len);
    insn.payloadOff = static_cast<uint8_t>(payload);
    insn.forbidden = spec.forbidden;
    insn.flow = spec.flow;
    insn.mnemonic = spec.mnemonic;

    // int imm8: only vector 0x80 (the legacy Linux syscall gate) is
    // isolation-subverting; other vectors stay in the cubicle.
    if (op == 0xCD) {
        const uint8_t vec = image[pos + len - 1];
        if (vec == 0x80) {
            insn.forbidden = true;
            insn.mnemonic = "int80";
        }
    }

    if (spec.branch) {
        insn.branchRel = readRel(
            image, pos + len - static_cast<std::size_t>(spec.branchBytes),
            static_cast<unsigned>(spec.branchBytes));
    }
    return insn;
}

} // namespace cubicleos::audit
