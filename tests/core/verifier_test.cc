/**
 * @file
 * Tests for the code verifier: the auditor's x86-64 length decoder,
 * the labels its reachability walk gives forbidden sequences, the walk
 * from the entry points, and the loader, whose verdict is the grep
 * alone (refusals, stats and the verify cache).
 */

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "audit/insn.h"
#include "audit/ipcfg.h"
#include "builder/image.h"
#include "core/system.h"
#include "core/verifier/cache.h"
#include "tests/core/toy_components.h"

namespace cubicleos::core {
namespace {

using audit::FindingClass;
using audit::FlowKind;
using audit::Insn;
using audit::VerifierReport;
using audit::decodeAt;
using audit::verifyImageInter;

std::vector<uint8_t>
bytes(std::initializer_list<int> list)
{
    std::vector<uint8_t> v;
    for (int b : list)
        v.push_back(static_cast<uint8_t>(b));
    return v;
}

// ----------------------------------------------------------------------
// Instruction-length decoder
// ----------------------------------------------------------------------

TEST(InsnDecode, SingleByteOpcodes)
{
    auto image = bytes({0x90, 0xC3, 0x55, 0x5D, 0xC9});
    for (std::size_t pos = 0; pos < image.size(); ++pos) {
        auto insn = decodeAt(image, pos);
        ASSERT_TRUE(insn.has_value()) << pos;
        EXPECT_EQ(insn->length, 1u) << pos;
        EXPECT_EQ(insn->payloadOff, 1u) << pos;
        EXPECT_FALSE(insn->forbidden);
    }
}

TEST(InsnDecode, RexMovRegReg)
{
    auto image = bytes({0x48, 0x89, 0xC3}); // mov rbx, rax
    auto insn = decodeAt(image, 0);
    ASSERT_TRUE(insn.has_value());
    EXPECT_EQ(insn->length, 3u);
    EXPECT_EQ(insn->payloadOff, 3u); // no data bytes
}

TEST(InsnDecode, MovImm32)
{
    auto image = bytes({0xB8, 0x11, 0x22, 0x33, 0x44}); // mov eax, imm32
    auto insn = decodeAt(image, 0);
    ASSERT_TRUE(insn.has_value());
    EXPECT_EQ(insn->length, 5u);
    EXPECT_EQ(insn->payloadOff, 1u); // imm32 is payload
}

TEST(InsnDecode, MovImm64UnderRexW)
{
    // movabs rax, imm64: REX.W widens the B8 immediate to 8 bytes.
    auto image = bytes({0x48, 0xB8, 1, 2, 3, 4, 5, 6, 7, 8});
    auto insn = decodeAt(image, 0);
    ASSERT_TRUE(insn.has_value());
    EXPECT_EQ(insn->length, 10u);
    EXPECT_EQ(insn->payloadOff, 2u);
}

TEST(InsnDecode, OperandSizePrefixNarrowsImmediate)
{
    auto image = bytes({0x66, 0xB8, 0x11, 0x22}); // mov ax, imm16
    auto insn = decodeAt(image, 0);
    ASSERT_TRUE(insn.has_value());
    EXPECT_EQ(insn->length, 4u);
    EXPECT_EQ(insn->payloadOff, 2u);
}

TEST(InsnDecode, RexWOverridesOperandSizePrefix)
{
    // 66 48 2d: sub rax, imm32. With REX.W the operand is 64-bit, so
    // the 0x66 prefix is ignored and the immediate stays 4 bytes.
    auto image = bytes({0x66, 0x48, 0x2D, 0xAA, 0xBB, 0x68, 0xDD});
    auto insn = decodeAt(image, 0);
    ASSERT_TRUE(insn.has_value());
    EXPECT_EQ(insn->length, 7u);
    EXPECT_EQ(insn->payloadOff, 3u);

    auto push = bytes({0x66, 0x48, 0x68, 1, 2, 3, 4}); // push imm32
    insn = decodeAt(push, 0);
    ASSERT_TRUE(insn.has_value());
    EXPECT_EQ(insn->length, 7u);
}

TEST(InsnDecode, ModRmDisp8AndDisp32)
{
    auto d8 = bytes({0x48, 0x8B, 0x45, 0x08}); // mov rax, [rbp+8]
    auto insn = decodeAt(d8, 0);
    ASSERT_TRUE(insn.has_value());
    EXPECT_EQ(insn->length, 4u);
    EXPECT_EQ(insn->payloadOff, 3u); // disp8 is payload

    auto d32 = bytes({0x48, 0x8B, 0x80, 1, 2, 3, 4}); // mov rax,[rax+d32]
    insn = decodeAt(d32, 0);
    ASSERT_TRUE(insn.has_value());
    EXPECT_EQ(insn->length, 7u);
    EXPECT_EQ(insn->payloadOff, 3u);
}

TEST(InsnDecode, SibAndRipRelative)
{
    auto sib = bytes({0x48, 0x8B, 0x04, 0x24}); // mov rax, [rsp]
    auto insn = decodeAt(sib, 0);
    ASSERT_TRUE(insn.has_value());
    EXPECT_EQ(insn->length, 4u);
    EXPECT_EQ(insn->payloadOff, 4u); // modrm+sib are structural

    auto rip = bytes({0x48, 0x8B, 0x05, 1, 2, 3, 4}); // mov rax,[rip+d32]
    insn = decodeAt(rip, 0);
    ASSERT_TRUE(insn.has_value());
    EXPECT_EQ(insn->length, 7u);
    EXPECT_EQ(insn->payloadOff, 3u);

    // SIB with base 101 and mod 00 carries a disp32.
    auto sibd = bytes({0x48, 0x8B, 0x04, 0x25, 1, 2, 3, 4});
    insn = decodeAt(sibd, 0);
    ASSERT_TRUE(insn.has_value());
    EXPECT_EQ(insn->length, 8u);
    EXPECT_EQ(insn->payloadOff, 4u);
}

TEST(InsnDecode, DirectBranches)
{
    auto jmp8 = bytes({0xEB, 0x05});
    auto insn = decodeAt(jmp8, 0);
    ASSERT_TRUE(insn.has_value());
    EXPECT_EQ(insn->flow, FlowKind::kJump);
    EXPECT_EQ(insn->branchRel, 5);

    auto jcc8 = bytes({0x74, 0xFE}); // je -2
    insn = decodeAt(jcc8, 0);
    ASSERT_TRUE(insn.has_value());
    EXPECT_EQ(insn->flow, FlowKind::kBranch);
    EXPECT_EQ(insn->branchRel, -2);

    auto call = bytes({0xE8, 0x10, 0x00, 0x00, 0x00});
    insn = decodeAt(call, 0);
    ASSERT_TRUE(insn.has_value());
    EXPECT_EQ(insn->length, 5u);
    EXPECT_EQ(insn->flow, FlowKind::kCall);
    EXPECT_EQ(insn->branchRel, 16);

    auto jcc32 = bytes({0x0F, 0x84, 0x00, 0x01, 0x00, 0x00});
    insn = decodeAt(jcc32, 0);
    ASSERT_TRUE(insn.has_value());
    EXPECT_EQ(insn->length, 6u);
    EXPECT_EQ(insn->branchRel, 256);
}

TEST(InsnDecode, VendorDivergentEncodingsAreOpaque)
{
    // 0x66 on a near rel32 branch: Intel ignores it, AMD reads a
    // rel16, so the two CPUs disagree on the length.
    EXPECT_FALSE(decodeAt(bytes({0x66, 0xE8, 0, 0, 0, 0}), 0).has_value());
    EXPECT_FALSE(decodeAt(bytes({0x66, 0xE9, 0, 0, 0, 0}), 0).has_value());
    for (int cc = 0x80; cc <= 0x8F; ++cc) {
        EXPECT_FALSE(
            decodeAt(bytes({0x66, 0x0F, cc, 0, 0, 0, 0}), 0).has_value())
            << cc;
    }
    // 8F /1-/7: XOP on AMD, #UD on Intel.
    for (int reg = 1; reg <= 7; ++reg) {
        EXPECT_FALSE(decodeAt(bytes({0x8F, 0xC0 | (reg << 3)}), 0)
                         .has_value())
            << reg;
    }

    // Their unprefixed and /0 neighbours still decode.
    auto call = decodeAt(bytes({0xE8, 0, 0, 0, 0}), 0);
    ASSERT_TRUE(call.has_value());
    EXPECT_EQ(call->length, 5u);
    auto jmp = decodeAt(bytes({0xE9, 0, 0, 0, 0}), 0);
    ASSERT_TRUE(jmp.has_value());
    EXPECT_EQ(jmp->length, 5u);
    for (int cc = 0x80; cc <= 0x8F; ++cc) {
        auto jcc = decodeAt(bytes({0x0F, cc, 0, 0, 0, 0}), 0);
        ASSERT_TRUE(jcc.has_value()) << cc;
        EXPECT_EQ(jcc->length, 6u) << cc;
    }
    auto pop = decodeAt(bytes({0x8F, 0xC0}), 0); // pop rax (8f /0)
    ASSERT_TRUE(pop.has_value());
    EXPECT_EQ(pop->length, 2u);
    // A rel8 branch has one length on both vendors, prefix or not.
    auto jmp8 = decodeAt(bytes({0x66, 0xEB, 0x05}), 0);
    ASSERT_TRUE(jmp8.has_value());
    EXPECT_EQ(jmp8->length, 3u);
}

TEST(InsnDecode, ForbiddenInstructions)
{
    struct Case {
        std::vector<uint8_t> image;
        const char *mnemonic;
    };
    const Case cases[] = {
        {bytes({0x0F, 0x01, 0xEF}), "wrpkru"},
        {bytes({0x0F, 0x01, 0xD1}), "xsetbv"},
        {bytes({0x0F, 0x05}), "syscall"},
        {bytes({0x0F, 0x34}), "sysenter"},
        {bytes({0xCD, 0x80}), "int80"},
        {bytes({0x0F, 0xAE, 0x28}), "xrstor"},
    };
    for (const Case &c : cases) {
        auto insn = decodeAt(c.image, 0);
        ASSERT_TRUE(insn.has_value()) << c.mnemonic;
        EXPECT_TRUE(insn->forbidden) << c.mnemonic;
        EXPECT_STREQ(insn->mnemonic, c.mnemonic);
    }
}

TEST(InsnDecode, BenignNeighboursOfForbiddenEncodings)
{
    // int 0x21 stays inside the cubicle; only vector 0x80 is the
    // legacy syscall gate.
    auto int21 = bytes({0xCD, 0x21});
    auto insn = decodeAt(int21, 0);
    ASSERT_TRUE(insn.has_value());
    EXPECT_FALSE(insn->forbidden);

    // lfence: register form of the 0F AE group, reg field 5.
    auto lfence = bytes({0x0F, 0xAE, 0xE8});
    insn = decodeAt(lfence, 0);
    ASSERT_TRUE(insn.has_value());
    EXPECT_FALSE(insn->forbidden);
    EXPECT_STREQ(insn->mnemonic, "fence");

    // xsave (reg field 4, memory form) is allowed.
    auto xsave = bytes({0x0F, 0xAE, 0x20});
    insn = decodeAt(xsave, 0);
    ASSERT_TRUE(insn.has_value());
    EXPECT_FALSE(insn->forbidden);
}

TEST(InsnDecode, UnsupportedBytesAreUndecodable)
{
    // 0x06 (push es) is invalid in 64-bit mode; 0F 01 with a non-
    // wrpkru/xsetbv ModRM is outside the supported subset.
    EXPECT_FALSE(decodeAt(bytes({0x06}), 0).has_value());
    EXPECT_FALSE(decodeAt(bytes({0x0F, 0x01, 0x00}), 0).has_value());
    // Register forms of 0F AE below reg 5 (ldmxcsr etc.).
    EXPECT_FALSE(decodeAt(bytes({0x0F, 0xAE, 0xC0}), 0).has_value());
}

TEST(InsnDecode, TruncationIsUndecodable)
{
    EXPECT_FALSE(decodeAt(bytes({0xB8, 0x01}), 0).has_value());
    EXPECT_FALSE(decodeAt(bytes({0x48}), 0).has_value());
    EXPECT_FALSE(decodeAt(bytes({0x48, 0x8B, 0x05, 1, 2}), 0).has_value());
    EXPECT_FALSE(decodeAt(bytes({0x90}), 1).has_value()); // past the end
}

TEST(InsnDecode, OverlongPrefixRunIsUndecodable)
{
    std::vector<uint8_t> image(16, 0x66);
    image.push_back(0x90);
    EXPECT_FALSE(decodeAt(image, 0).has_value());
}

// Round-trip cases for the opcode families added for real compiler
// output: (bytes, expected length, expected payload offset, mnemonic).
struct RoundTrip {
    std::vector<uint8_t> image;
    std::size_t length;
    std::size_t payloadOff;
    const char *mnemonic;
};

void
expectRoundTrip(const RoundTrip &c)
{
    auto insn = decodeAt(c.image, 0);
    ASSERT_TRUE(insn.has_value()) << c.mnemonic;
    EXPECT_EQ(insn->length, c.length) << c.mnemonic;
    EXPECT_EQ(insn->payloadOff, c.payloadOff) << c.mnemonic;
    EXPECT_STREQ(insn->mnemonic, c.mnemonic);
    EXPECT_FALSE(insn->forbidden) << c.mnemonic;
}

TEST(InsnDecode, Group2ShiftsAndRotates)
{
    const RoundTrip cases[] = {
        {bytes({0x48, 0xC1, 0xE0, 0x05}), 4, 3, "shift"}, // shl rax, 5
        {bytes({0xC1, 0xE8, 0x02}), 3, 2, "shift"},       // shr eax, 2
        {bytes({0xC0, 0xC8, 0x01}), 3, 2, "shift"},       // ror al, 1
        {bytes({0xD1, 0xE0}), 2, 2, "shift"},             // shl eax, 1
        {bytes({0x48, 0xD3, 0xE2}), 3, 3, "shift"},       // shl rdx, cl
    };
    for (const RoundTrip &c : cases)
        expectRoundTrip(c);
}

TEST(InsnDecode, StringOpsWithRepPrefixes)
{
    const RoundTrip cases[] = {
        {bytes({0xA4}), 1, 1, "string"},             // movsb
        {bytes({0xF3, 0xA4}), 2, 2, "string"},       // rep movsb
        {bytes({0xF3, 0x48, 0xA5}), 3, 3, "string"}, // rep movsq
        {bytes({0xF3, 0xAA}), 2, 2, "string"},       // rep stosb
        {bytes({0xF2, 0xAE}), 2, 2, "string"},       // repne scasb
        {bytes({0xA6}), 1, 1, "string"},             // cmpsb
    };
    for (const RoundTrip &c : cases)
        expectRoundTrip(c);
}

TEST(InsnDecode, SseMoves)
{
    const RoundTrip cases[] = {
        {bytes({0x0F, 0x28, 0xC1}), 3, 3, "ssemov"},       // movaps
        {bytes({0x0F, 0x10, 0x00}), 3, 3, "ssemov"},       // movups [rax]
        {bytes({0x66, 0x0F, 0x6F, 0xC8}), 4, 4, "sse"},    // movdqa
        {bytes({0xF3, 0x0F, 0x7E, 0xC0}), 4, 4, "ssemov"}, // movq
        {bytes({0x66, 0x0F, 0x7F, 0x01}), 4, 4, "ssemov"}, // movdqa [rcx]
        {bytes({0x66, 0x0F, 0xD6, 0xC1}), 4, 4, "ssemov"}, // movq xmm,xmm
        // movss xmm0, [rip+d32]: the disp32 is payload.
        {bytes({0xF3, 0x0F, 0x10, 0x05, 1, 2, 3, 4}), 8, 4, "ssemov"},
    };
    for (const RoundTrip &c : cases)
        expectRoundTrip(c);
}

TEST(InsnDecode, SsePackedArithmeticAndCompare)
{
    const RoundTrip cases[] = {
        {bytes({0x0F, 0x58, 0xC1}), 3, 3, "ssearith"},       // addps
        {bytes({0xF2, 0x0F, 0x59, 0xC8}), 4, 4, "ssearith"}, // mulsd
        {bytes({0x0F, 0x51, 0xC0}), 3, 3, "ssearith"},       // sqrtps
        {bytes({0x66, 0x0F, 0xEF, 0xC0}), 4, 4, "pxor"},     // pxor
        {bytes({0x66, 0x0F, 0x74, 0xC1}), 4, 4, "pcmpeq"},   // pcmpeqb
    };
    for (const RoundTrip &c : cases)
        expectRoundTrip(c);
}

TEST(InsnDecode, SseShuffleAndShiftImmediates)
{
    const RoundTrip cases[] = {
        // psrlw xmm0, 4 (group 12, /2, imm8 payload)
        {bytes({0x66, 0x0F, 0x71, 0xD0, 0x04}), 5, 4, "sseshift"},
        // pshufd xmm0, xmm1, 0x1B
        {bytes({0x66, 0x0F, 0x70, 0xC1, 0x1B}), 5, 4, "pshuf"},
        // shufps xmm0, xmm1, 3
        {bytes({0x0F, 0xC6, 0xC1, 0x03}), 4, 3, "shufps"},
    };
    for (const RoundTrip &c : cases)
        expectRoundTrip(c);
}

TEST(InsnDecode, VexTwoBytePrefix)
{
    const RoundTrip cases[] = {
        // vaddps xmm0, xmm0, xmm1 (c5 f8 58 c1)
        {bytes({0xC5, 0xF8, 0x58, 0xC1}), 4, 4, "ssearith"},
        // vmovaps xmm1, xmm2 (c5 f8 28 ca)
        {bytes({0xC5, 0xF8, 0x28, 0xCA}), 4, 4, "ssemov"},
        // vmovdqa ymm0, [rip+d32] (c5 fd 6f 05 d32): disp is payload
        {bytes({0xC5, 0xFD, 0x6F, 0x05, 1, 2, 3, 4}), 8, 4, "sse"},
        // vpxor xmm0, xmm1, [rax] (c5 f1 ef 00)
        {bytes({0xC5, 0xF1, 0xEF, 0x00}), 4, 4, "pxor"},
        // vpshufd xmm0, xmm0, 0x1e (c5 f9 70 c0 1e): imm8 payload
        {bytes({0xC5, 0xF9, 0x70, 0xC0, 0x1E}), 5, 4, "pshuf"},
    };
    for (const RoundTrip &c : cases)
        expectRoundTrip(c);
}

TEST(InsnDecode, VexThreeBytePrefix)
{
    const RoundTrip cases[] = {
        // Map 1 through the 3-byte form: vaddps ymm0, ymm0, ymm1
        // (c4 c1 7c 58 c1 encodes VEX.B for xmm9-class operands).
        {bytes({0xC4, 0xC1, 0x7C, 0x58, 0xC1}), 5, 5, "ssearith"},
        // Map 2 (0F 38), no immediate: vbroadcastss xmm0, [rip+d32]
        {bytes({0xC4, 0xE2, 0x79, 0x18, 0x05, 1, 2, 3, 4}), 9, 5, "avx"},
        // Map 2 register form: vpermd ymm0, ymm1, ymm2
        {bytes({0xC4, 0xE2, 0x75, 0x36, 0xC2}), 5, 5, "avx"},
        // Map 3 (0F 3A), imm8: vpblendw xmm0, xmm1, xmm2, 0x33
        {bytes({0xC4, 0xE3, 0x75, 0x0E, 0xC2, 0x33}), 6, 5, "avx"},
        // Map 3 with memory operand + SIB: vpalignr with disp8
        // (payload starts after VEX + opcode + ModRM + SIB = 6).
        {bytes({0xC4, 0xE3, 0x71, 0x0F, 0x44, 0x24, 0x10, 0x07}),
         8, 6, "avx"},
    };
    for (const RoundTrip &c : cases)
        expectRoundTrip(c);
}

TEST(InsnDecode, VexEdgeCasesAreUndecodable)
{
    // Reserved escape maps (mmmmm = 0, 4) in the 3-byte form.
    EXPECT_FALSE(decodeAt(bytes({0xC4, 0xE0, 0x79, 0x18, 0x05}), 0)
                     .has_value());
    EXPECT_FALSE(decodeAt(bytes({0xC4, 0xE4, 0x79, 0x18, 0x05}), 0)
                     .has_value());
    // Truncated VEX prefixes.
    EXPECT_FALSE(decodeAt(bytes({0xC5}), 0).has_value());
    EXPECT_FALSE(decodeAt(bytes({0xC5, 0xF8}), 0).has_value());
    EXPECT_FALSE(decodeAt(bytes({0xC4, 0xE2, 0x79}), 0).has_value());
    // VEX of a map-1 row with no VEX form (jcc, bswap, syscall):
    // undecodable, never a guessed length.
    EXPECT_FALSE(decodeAt(bytes({0xC5, 0xF8, 0x84, 0, 0, 0, 0}), 0)
                     .has_value());
    EXPECT_FALSE(decodeAt(bytes({0xC5, 0xF8, 0xC8}), 0).has_value());
    EXPECT_FALSE(decodeAt(bytes({0xC5, 0xF8, 0x05}), 0).has_value());
}

TEST(InsnDecode, EvexPrefix)
{
    const RoundTrip cases[] = {
        // vaddps zmm0, zmm0, zmm1 (62 f1 7c 48 58 c1): map 1 row.
        {bytes({0x62, 0xF1, 0x7C, 0x48, 0x58, 0xC1}), 6, 6, "avx512"},
        // vmovaps zmm1, zmm2 through the same map-1 reuse.
        {bytes({0x62, 0xF1, 0x7C, 0x48, 0x28, 0xCA}), 6, 6, "avx512"},
        // vmovdqa64 zmm0, [rip+d32] (62 f1 fd 48 6f 05 d32): the
        // disp32 is payload; disp8*N does not apply to disp32.
        {bytes({0x62, 0xF1, 0xFD, 0x48, 0x6F, 0x05, 1, 2, 3, 4}),
         10, 6, "avx512"},
        // Map 2 (0F 38), no immediate: vpermd zmm0, zmm1, zmm2.
        {bytes({0x62, 0xF2, 0x75, 0x48, 0x36, 0xC2}), 6, 6, "avx512"},
        // Map 2 memory form with compressed disp8 (width still 1):
        // vbroadcastss zmm0, [rax+0x40].
        {bytes({0x62, 0xF2, 0x7D, 0x48, 0x18, 0x40, 0x10}),
         7, 6, "avx512"},
        // Map 3 (0F 3A), imm8: valignd zmm0, zmm1, zmm2, 3.
        {bytes({0x62, 0xF3, 0x75, 0x48, 0x03, 0xC2, 0x03}),
         7, 6, "avx512"},
        // Map 3 with memory operand + SIB: payload after
        // EVEX(4) + opcode + ModRM + SIB = 7, then disp8 + imm8.
        {bytes({0x62, 0xF3, 0x75, 0x48, 0x0F, 0x44, 0x24, 0x10, 0x07}),
         9, 7, "avx512"},
    };
    for (const RoundTrip &c : cases)
        expectRoundTrip(c);
}

TEST(InsnDecode, EvexEdgeCasesAreUndecodable)
{
    // Truncated EVEX prefixes.
    EXPECT_FALSE(decodeAt(bytes({0x62}), 0).has_value());
    EXPECT_FALSE(decodeAt(bytes({0x62, 0xF1, 0x7C}), 0).has_value());
    EXPECT_FALSE(decodeAt(bytes({0x62, 0xF1, 0x7C, 0x48}), 0)
                     .has_value());
    // Reserved P0 bit 3 set, reserved map 0, unsupported map 5.
    EXPECT_FALSE(decodeAt(bytes({0x62, 0xF9, 0x7C, 0x48, 0x58, 0xC1}), 0)
                     .has_value());
    EXPECT_FALSE(decodeAt(bytes({0x62, 0xF0, 0x7C, 0x48, 0x58, 0xC1}), 0)
                     .has_value());
    EXPECT_FALSE(decodeAt(bytes({0x62, 0xF5, 0x7C, 0x48, 0x58, 0xC1}), 0)
                     .has_value());
    // P1's fixed bit 2 cleared: not a valid EVEX payload.
    EXPECT_FALSE(decodeAt(bytes({0x62, 0xF1, 0x78, 0x48, 0x58, 0xC1}), 0)
                     .has_value());
    // EVEX of a map-1 row with no vector form (jcc, syscall).
    EXPECT_FALSE(
        decodeAt(bytes({0x62, 0xF1, 0x7C, 0x48, 0x84, 0, 0, 0, 0}), 0)
            .has_value());
    EXPECT_FALSE(decodeAt(bytes({0x62, 0xF1, 0x7C, 0x48, 0x05}), 0)
                     .has_value());
}


TEST(InsnDecode, FlowKinds)
{
    struct FlowCase {
        std::vector<uint8_t> image;
        FlowKind flow;
    };
    const FlowCase cases[] = {
        {bytes({0x90}), FlowKind::kSequential},
        {bytes({0x48, 0x89, 0xC3}), FlowKind::kSequential},
        {bytes({0x74, 0x05}), FlowKind::kBranch},          // je
        {bytes({0x0F, 0x84, 1, 0, 0, 0}), FlowKind::kBranch},
        {bytes({0xEB, 0x05}), FlowKind::kJump},
        {bytes({0xE9, 1, 0, 0, 0}), FlowKind::kJump},
        {bytes({0xE8, 1, 0, 0, 0}), FlowKind::kCall},
        {bytes({0xFF, 0xD0}), FlowKind::kIndirectCall},    // call rax
        {bytes({0xFF, 0x10}), FlowKind::kIndirectCall},    // call [rax]
        {bytes({0xFF, 0xE0}), FlowKind::kIndirectJump},    // jmp rax
        {bytes({0xFF, 0x20}), FlowKind::kIndirectJump},    // jmp [rax]
        {bytes({0xFF, 0xC0}), FlowKind::kSequential},      // inc eax
        {bytes({0xC3}), FlowKind::kTerminal},              // ret
        {bytes({0xC2, 0x08, 0x00}), FlowKind::kTerminal},  // ret imm16
        {bytes({0xCC}), FlowKind::kTerminal},              // int3
        {bytes({0xF4}), FlowKind::kTerminal},              // hlt
        {bytes({0x0F, 0x0B}), FlowKind::kTerminal},        // ud2
    };
    for (const FlowCase &c : cases) {
        auto insn = decodeAt(c.image, 0);
        ASSERT_TRUE(insn.has_value()) << static_cast<int>(c.image[0]);
        EXPECT_EQ(insn->flow, c.flow)
            << "opcode " << static_cast<int>(c.image[0]);
    }
}

// ----------------------------------------------------------------------
// Finding labels (walked from offset 0 unless a test says otherwise)
// ----------------------------------------------------------------------

TEST(Verifier, CleanImageAccepted)
{
    auto image = builder::makeBenignImage(4096, 7);
    VerifierReport report = verifyImageInter(image, {}, {});
    EXPECT_TRUE(report.accepted());
    EXPECT_TRUE(report.findings.empty());
    EXPECT_EQ(report.undecodableBytes, 0u);
    EXPECT_DOUBLE_EQ(report.decodeCoverage(), 1.0);
    EXPECT_GT(report.insnCount, 0u);
}

TEST(Verifier, AlignedWrpkruRejected)
{
    auto image = bytes({0x90, 0x0F, 0x01, 0xEF, 0x90});
    VerifierReport report = verifyImageInter(image, {}, {});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].cls, FindingClass::kAligned);
    EXPECT_EQ(report.findings[0].offset, 1u);
    EXPECT_EQ(report.findings[0].mnemonic, "wrpkru");
    EXPECT_FALSE(report.accepted());
}

TEST(Verifier, EmbeddedInImmediateIsReportOnly)
{
    // mov eax, 0x90EF010F: the wrpkru bytes live entirely inside the
    // imm32 payload — a compiler constant, not reachable code.
    auto image = bytes({0xB8, 0x0F, 0x01, 0xEF, 0x90, 0xC3});
    VerifierReport report = verifyImageInter(image, {}, {});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].cls, FindingClass::kUnreachable);
    EXPECT_TRUE(report.accepted());
    EXPECT_EQ(report.reportedCount(), 1u);
    EXPECT_EQ(report.rejectingCount(), 0u);
}

TEST(Verifier, MisalignedSpanningInstructionsRejected)
{
    // mov al, 0x0F ; add eax, imm32 — the grep's "0F 05" spans the
    // first instruction's immediate and the second's opcode byte, so
    // an entry point one byte in executes syscall.
    auto image = bytes({0xB0, 0x0F, 0x05, 0x11, 0x22, 0x33, 0x44});
    const std::size_t entries[] = {0, 1};
    VerifierReport report = verifyImageInter(image, entries, {});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].offset, 1u);
    EXPECT_EQ(report.findings[0].mnemonic, "syscall");
    EXPECT_EQ(report.findings[0].cls, FindingClass::kAligned);
    EXPECT_FALSE(report.accepted());
}

TEST(Verifier, MatchInUndecodableRegionRejected)
{
    // Truncated xrstor memory form (mod 2 needs a disp32 that is not
    // there): the grep matches, the walk reaches bytes it cannot
    // decode and proves nothing, so the match is rejected.
    auto image = bytes({0x90, 0x0F, 0xAE, 0xA8});
    VerifierReport report = verifyImageInter(image, {}, {});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].cls, FindingClass::kIndirectReachable);
    EXPECT_FALSE(report.accepted());
    EXPECT_GT(report.undecodableBytes, 0u);
    EXPECT_LT(report.decodeCoverage(), 1.0);
}

TEST(Verifier, BenignAliasOfMaskedPatternIsReportOnly)
{
    // lfence matches the masked xrstor grep pattern but decodes to a
    // benign instruction at the match offset.
    auto image = bytes({0x0F, 0xAE, 0xE8, 0xC3});
    VerifierReport report = verifyImageInter(image, {}, {});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].cls, FindingClass::kUnreachable);
    EXPECT_TRUE(report.accepted());
}

TEST(Verifier, BranchTargetingEmbeddedMatchUpgradesToReject)
{
    // jmp +6 lands exactly on the wrpkru bytes hidden in the second
    // mov's immediate: reachable after all.
    auto hostile = bytes({0xEB, 0x06,                    // jmp → 8
                          0xB8, 0x00, 0x00, 0x00, 0x00,  // mov eax, 0
                          0xB8, 0x0F, 0x01, 0xEF, 0x90,  // imm32 hides wrpkru
                          0xC3});
    VerifierReport report = verifyImageInter(hostile, {}, {});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].offset, 8u);
    EXPECT_EQ(report.findings[0].cls, FindingClass::kAligned);
    EXPECT_FALSE(report.accepted());

    // Without the jump the same bytes stay report-only.
    auto benign = std::vector<uint8_t>(hostile.begin() + 2, hostile.end());
    report = verifyImageInter(benign, {}, {});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].cls, FindingClass::kUnreachable);
    EXPECT_TRUE(report.accepted());
}

TEST(Verifier, SequenceSpanningPageBoundaryStillRejected)
{
    std::vector<uint8_t> image(8192, 0x90);
    image[4095] = 0x0F;
    image[4096] = 0x01;
    image[4097] = 0xEF;
    VerifierReport report = verifyImageInter(image, {}, {});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].offset, 4095u);
    EXPECT_EQ(report.findings[0].cls, FindingClass::kAligned);
    EXPECT_FALSE(report.accepted());
}

TEST(Verifier, EmptyImageAccepted)
{
    VerifierReport report = verifyImageInter({}, {}, {});
    EXPECT_TRUE(report.accepted());
    EXPECT_EQ(report.imageBytes, 0u);
    EXPECT_DOUBLE_EQ(report.decodeCoverage(), 1.0);
}

TEST(Verifier, CoverageCountsAreConsistent)
{
    auto image = builder::makeBenignImage(16384, 3);
    // Splice an undecodable byte run into the middle.
    for (std::size_t i = 8000; i < 8016; ++i)
        image[i] = 0x06;
    VerifierReport report = verifyImageInter(image, {}, {});
    EXPECT_EQ(report.imageBytes, image.size());
    EXPECT_GT(report.undecodableBytes, 0u);
    EXPECT_LE(report.decodedBytes + report.undecodableBytes, image.size());
    EXPECT_LE(report.firstUndecodable, 8000u + audit::kMaxInsnLen);
}

// ----------------------------------------------------------------------
// The reachability walk from the entry points
// ----------------------------------------------------------------------

TEST(Cfg, DataAfterRetIsUnreachable)
{
    // ret ; wrpkru — the wrpkru sits on an instruction boundary, but
    // beyond the function's only exit.
    auto image = bytes({0xC3, 0x0F, 0x01, 0xEF});
    VerifierReport r = verifyImageInter(image, {}, {});
    EXPECT_TRUE(r.accepted());
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].cls, FindingClass::kUnreachable);
    EXPECT_TRUE(r.cfg.ran);
    EXPECT_FALSE(r.cfg.opaque);
    EXPECT_EQ(r.cfg.reachableInsns, 1u);
    EXPECT_EQ(r.cfg.terminals, 1u);
}

TEST(Cfg, JumpOverDataSkipsForbiddenBytes)
{
    // jmp +3 hops over a wrpkru island; nothing branches back into it.
    auto image = bytes({0xEB, 0x03,             // jmp → 5
                        0x0F, 0x01, 0xEF,       // dead wrpkru
                        0x90, 0xC3});
    VerifierReport r = verifyImageInter(image, {}, {});
    EXPECT_TRUE(r.accepted());
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].cls, FindingClass::kUnreachable);
    EXPECT_EQ(r.cfg.directBranches, 1u);
}

TEST(Cfg, ReachableAlignedStillRejected)
{
    auto image = bytes({0x90, 0x0F, 0x01, 0xEF, 0xC3});
    VerifierReport r = verifyImageInter(image, {}, {});
    EXPECT_FALSE(r.accepted());
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].cls, FindingClass::kAligned);
    EXPECT_EQ(r.findings[0].offset, 1u);
}

TEST(Cfg, ConditionalBranchWalksBothPaths)
{
    // Taken path reaches syscall.
    auto taken = bytes({0x74, 0x03,       // je → 5
                        0x90, 0x90, 0xC3, // fall-through exits cleanly
                        0x0F, 0x05});     // target: syscall
    EXPECT_FALSE(verifyImageInter(taken, {}, {}).accepted());

    // Fall-through path reaches syscall.
    auto fallthrough = bytes({0x74, 0x02, // je → 4 (ret)
                              0x0F, 0x05, // fall-through: syscall
                              0xC3});
    EXPECT_FALSE(verifyImageInter(fallthrough, {}, {}).accepted());
}

TEST(Cfg, CallWalksTargetAndFallThrough)
{
    // Callee (target of call rel32) contains the forbidden bytes.
    auto callee = bytes({0xE8, 0x01, 0x00, 0x00, 0x00, // call → 6
                         0xC3,
                         0x0F, 0x01, 0xEF});
    EXPECT_FALSE(verifyImageInter(callee, {}, {}).accepted());

    // Return path (after the call site) contains them.
    auto after = bytes({0xE8, 0x02, 0x00, 0x00, 0x00, // call → 7
                        0x0F, 0x05,                   // fall-through
                        0xC3});
    EXPECT_FALSE(verifyImageInter(after, {}, {}).accepted());
}

TEST(Cfg, EntryPointsSeedTheWalk)
{
    auto image = bytes({0xC3, 0x0F, 0x01, 0xEF});
    const std::size_t first[] = {0};
    const std::size_t both[] = {0, 1};
    EXPECT_TRUE(verifyImageInter(image, first, {}).accepted());
    EXPECT_FALSE(verifyImageInter(image, both, {}).accepted());
    EXPECT_EQ(verifyImageInter(image, both, {}).cfg.entryCount, 2u);
}

TEST(Cfg, EntryPointOnEmbeddedConstantUpgradesToReject)
{
    // From offset 0 the wrpkru bytes are an immediate constant; an
    // export table handing out offset 1 makes them an entry point.
    auto image = bytes({0xB8, 0x0F, 0x01, 0xEF, 0x90, 0xC3});
    EXPECT_TRUE(verifyImageInter(image, {}, {}).accepted());
    const std::size_t entries[] = {1};
    VerifierReport r = verifyImageInter(image, entries, {});
    EXPECT_FALSE(r.accepted());
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].cls, FindingClass::kAligned);
}

TEST(Cfg, IndirectJumpIsASink)
{
    // jmp rax ends the walk, but nothing proves its target misses the
    // syscall behind it: the unresolved jump makes the finding reject.
    auto image = bytes({0xFF, 0xE0, 0x0F, 0x05});
    VerifierReport r = verifyImageInter(image, {}, {});
    EXPECT_FALSE(r.accepted());
    EXPECT_EQ(r.cfg.indirectJumps, 1u);
    EXPECT_EQ(r.cfg.terminals, 0u);
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].cls, FindingClass::kIndirectReachable);
}

TEST(Cfg, IndirectCallFallsThrough)
{
    // call rax returns: the syscall after it is reachable.
    auto image = bytes({0xFF, 0xD0, 0x0F, 0x05});
    VerifierReport r = verifyImageInter(image, {}, {});
    EXPECT_FALSE(r.accepted());
    EXPECT_EQ(r.cfg.indirectSites, 1u);
}

TEST(Cfg, ReachableUndecodableByteFallsBackToSweepVerdict)
{
    // 0x06 is undecodable; the walk cannot see past it, so it proves
    // nothing dead and the finding rejects, with a witness path to
    // the hole.
    auto image = bytes({0x06, 0x0F, 0x01, 0xEF});
    VerifierReport r = verifyImageInter(image, {}, {});
    EXPECT_TRUE(r.cfg.opaque);
    EXPECT_EQ(r.cfg.firstOpaque, 0u);
    EXPECT_FALSE(r.accepted());
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].cls, FindingClass::kIndirectReachable);
    ASSERT_EQ(r.audit.witnessPaths.size(), 1u);
    EXPECT_EQ(r.audit.witnessPaths[0].steps, std::vector<std::size_t>{0});
}

TEST(Cfg, OutOfRangeEntryPointIsOpaque)
{
    auto image = bytes({0xC3, 0x0F, 0x01, 0xEF});
    const std::size_t entries[] = {100};
    VerifierReport r = verifyImageInter(image, entries, {});
    EXPECT_TRUE(r.cfg.opaque);
    EXPECT_FALSE(r.accepted()); // an opaque walk proves nothing dead
}

TEST(Cfg, EdgesLeavingTheImageAreExternalSinks)
{
    // jmp far past the end, and a nop falling off the last byte: both
    // count as external targets, neither makes the image opaque.
    auto jump = bytes({0xEB, 0x10, 0xC3});
    VerifierReport r = verifyImageInter(jump, {}, {});
    EXPECT_TRUE(r.accepted());
    EXPECT_FALSE(r.cfg.opaque);
    EXPECT_EQ(r.cfg.externalTargets, 1u);

    auto falloff = bytes({0x90, 0x90});
    r = verifyImageInter(falloff, {}, {});
    EXPECT_TRUE(r.accepted());
    EXPECT_EQ(r.cfg.externalTargets, 1u);
}

TEST(Cfg, ReachableCoverageGauge)
{
    auto image = bytes({0xEB, 0x03,       // jmp → 5
                        0x90, 0x90, 0x90, // dead
                        0xC3});
    VerifierReport r = verifyImageInter(image, {}, {});
    EXPECT_EQ(r.cfg.reachableBytes, 3u); // jmp (2) + ret (1)
    EXPECT_GT(r.reachableCoverage(), 0.0);
    EXPECT_LT(r.reachableCoverage(), 1.0);
}

TEST(Cfg, EmptyImageIsTriviallyAccepted)
{
    VerifierReport r = verifyImageInter({}, {}, {});
    EXPECT_TRUE(r.accepted());
    EXPECT_TRUE(r.cfg.ran);
    EXPECT_FALSE(r.cfg.opaque);
}

// ----------------------------------------------------------------------
// Loader integration: the loader refuses every grep match; the walk's
// label for the same image is asserted on the audit side.
// ----------------------------------------------------------------------

/** Loads @p spec into a fresh System, expecting a VerifierError whose
 *  message contains @p finding, and no cubicle left behind. */
void
expectRefused(const ComponentSpec &spec, const std::string &finding)
{
    System sys;
    try {
        sys.monitor().loadComponent(spec);
        ADD_FAILURE() << spec.name << ": image was loaded";
    } catch (const VerifierError &e) {
        EXPECT_NE(std::string(e.what()).find(finding), std::string::npos)
            << spec.name << ": " << e.what();
    }
    EXPECT_EQ(sys.monitor().cubicleCount(), 0u);
}

TEST(VerifierLoader, RejectsAlignedWrpkruWithClassification)
{
    System sys;
    std::vector<uint8_t> image(256, 0x90);
    image[10] = 0x0F;
    image[11] = 0x01;
    image[12] = 0xEF;
    testing::addToy(sys, "evil").withImage(image);
    try {
        sys.boot();
        FAIL() << "hostile image was loaded";
    } catch (const VerifierError &e) {
        EXPECT_NE(std::string(e.what()).find("'wrpkru' at offset 10"),
                  std::string::npos)
            << e.what();
    }

    // The walk from offset 0 runs the nop sled into it.
    const VerifierReport report = verifyImageInter(image, {}, {});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].cls, FindingClass::kAligned);
}

TEST(VerifierLoader, RejectsWrpkruHiddenByOperandSizeDesync)
{
    // sub rax, imm32 (66 48 2d aa bb 68 dd), wrpkru at offset 7, ret.
    // Sizing the immediate from 0x66 alone decoded a 5-byte sub and a
    // push imm32 swallowing the wrpkru, so the load succeeded.
    ComponentSpec spec;
    spec.name = "desync";
    spec.image = bytes({0x66, 0x48, 0x2D, 0xAA, 0xBB, 0x68, 0xDD, 0x0F,
                        0x01, 0xEF, 0xC3});
    spec.entryPoints = {0};
    expectRefused(spec, "'wrpkru' at offset 7");
}

TEST(VerifierLoader, RejectsBranchesWhoseLengthDependsOnTheVendor)
{
    // Each image jumps or calls with a 0x66-prefixed near branch.
    // Intel reads a rel32 that skips the forbidden bytes; AMD reads a
    // rel16 of 0 and runs the wrpkru or syscall right after it.
    struct Case {
        std::vector<uint8_t> image;
        const char *finding;
    };
    const Case cases[] = {
        {bytes({0x66, 0xE9, 0x00, 0x00, 0x0F, 0x01, 0xEF, 0xC3}),
         "'wrpkru' at offset 4"},
        {bytes({0x66, 0xE9, 0x00, 0x00, 0x0F, 0x05, 0xC3}),
         "'syscall' at offset 4"},
        {bytes({0x66, 0xE8, 0x00, 0x00, 0x0F, 0x05, 0xC3}),
         "'syscall' at offset 4"},
        {bytes({0x66, 0x0F, 0x84, 0x00, 0x00, 0x0F, 0x05, 0xC3}),
         "'syscall' at offset 5"},
    };
    for (const Case &c : cases) {
        ComponentSpec spec;
        spec.name = "divergent";
        spec.image = c.image;
        spec.entryPoints = {0};
        expectRefused(spec, c.finding);
    }
}

TEST(VerifierLoader, RejectsJumpTableEnteredPastItsGuard)
{
    // A bounded-switch dispatch (cmp rax, N; ja; lea rcx, [rip+T];
    // movsxd rdx, [rcx+rax*4]; add rcx, rdx; jmp rcx) reaches only its
    // table's targets when control enters through the cmp/ja guard and
    // falls through. Each image below gets past the guard another way,
    // and the jmp then reaches a wrpkru hidden in a mov eax, imm32.
    const std::vector<uint8_t> guarded = bytes({
        0x48, 0x83, 0xF8, 0x01,                   // 0: cmp rax, 1
        0x77, 0x1C,                               // 4: ja → 34
        0x48, 0x8D, 0x0D, 0x09, 0x00, 0x00, 0x00, // 6: lea rcx, [22]
        0x48, 0x63, 0x14, 0x81,                   // 13: movsxd rdx, ...
        0x48, 0x01, 0xD1,                         // 17: add rcx, rdx
        0xFF, 0xE1,                               // 20: jmp rcx
        0x0D, 0x00, 0x00, 0x00, 0x0C, 0x00, 0x00, 0x00, // table: 35, 34
        0x0E, 0x00, 0x00, 0x00,                   // 30: a third dword
        0xC3,                                     // 34: ret
        0xB8, 0x0F, 0x01, 0xEF, 0x90,             // 35: mov eax, imm32
        0xC3});
    // The idiom's own ja targets its movsxd: rax = 7, rcx = 10 reads
    // the dword at 38 and jumps to 32.
    const std::vector<uint8_t> ownJa = bytes({
        0x48, 0x83, 0xF8, 0x01, 0x77, 0x07,       // ja → 13
        0x48, 0x8D, 0x0D, 0x09, 0x00, 0x00, 0x00, 0x48, 0x63, 0x14,
        0x81, 0x48, 0x01, 0xD1, 0xFF, 0xE1,
        0x08, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, // table: 30, 31
        0xC3,                                     // 30: ret
        0xB8, 0x0F, 0x01, 0xEF, 0x90, 0xC3,       // 31: wrpkru at 32
        0xB8, 0x16, 0x00, 0x00, 0x00, 0xC3});     // 37: imm 22 at 38
    // Table entry 3 targets the idiom's own movsxd (57): rax = 3
    // dispatches twice and lands on 75.
    std::vector<uint8_t> ownTable = bytes({
        0x43, 0x00, 0x00, 0x00, 0x42, 0x00, 0x00, 0x00, // 67, 66
        0x42, 0x00, 0x00, 0x00, 0x39, 0x00, 0x00, 0x00}); // 66, 57
    for (int k = 0; k < 7; ++k)
        ownTable.insert(ownTable.end(), {0x42, 0x00, 0x00, 0x00});
    const std::vector<uint8_t> dispatch = bytes({
        0x48, 0x83, 0xF8, 0x0A, 0x77, 0x10,       // 44: cmp rax, 10; ja
        0x48, 0x8D, 0x0D, 0xC7, 0xFF, 0xFF, 0xFF, // 50: lea rcx, [0]
        0x48, 0x63, 0x14, 0x81, 0x48, 0x01, 0xD1, 0xFF, 0xE1,
        0xC3, 0x90,                               // 66: ret; 67: nop
        0xB8, 0x12, 0x00, 0x00, 0x00, 0xC3,       // 68: imm 18 at 69
        0xB8, 0x0F, 0x01, 0xEF, 0x90, 0xC3});     // 74: wrpkru at 75
    ownTable.insert(ownTable.end(), dispatch.begin(), dispatch.end());
    // A direct jmp from outside lands on the idiom's lea: rax = 2
    // reads the third dword and jumps to 38.
    std::vector<uint8_t> jumpIn = bytes({0xEB, 0x06}); // jmp → 8
    jumpIn.insert(jumpIn.end(), guarded.begin(), guarded.end());

    struct Case {
        const char *what;
        std::vector<uint8_t> image;
        std::vector<std::size_t> entries;
        const char *finding;
    };
    const Case cases[] = {
        {"entry point on the lea", guarded, {0, 6}, "'wrpkru' at offset 36"},
        {"own ja into the idiom", ownJa, {0}, "'wrpkru' at offset 32"},
        {"own table into the idiom", ownTable, {44},
         "'wrpkru' at offset 75"},
        {"jmp onto the lea", jumpIn, {0}, "'wrpkru' at offset 38"},
    };
    for (const Case &c : cases) {
        ComponentSpec spec;
        spec.name = c.what;
        spec.image = c.image;
        spec.entryPoints = c.entries;
        expectRefused(spec, c.finding);
        // The walk, which resolves the dispatch only behind its guard,
        // rejects each one too.
        const VerifierReport report =
            verifyImageInter(c.image, c.entries, {});
        EXPECT_FALSE(report.accepted()) << c.what;
    }

    // Entered only through its guard, the loader still refuses the
    // wrpkru bytes; the walk resolves the dispatch and labels them an
    // unreachable constant.
    ComponentSpec spec;
    spec.name = "guarded dispatch";
    spec.image = guarded;
    spec.entryPoints = {0};
    expectRefused(spec, "'wrpkru' at offset 36");
    const VerifierReport report =
        verifyImageInter(guarded, spec.entryPoints, {});
    EXPECT_TRUE(report.accepted());
    EXPECT_EQ(report.audit.resolvedSites, 1u);
    EXPECT_EQ(report.audit.unresolvedSites, 0u);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].offset, 36u);
    EXPECT_EQ(report.findings[0].cls, FindingClass::kUnreachable);
}

TEST(VerifierLoader, RejectsMisalignedSpanTheWalkFindsUnreachable)
{
    // mov al, 0x0F ; add eax, imm32 ; ret — the grep's "0F 05" spans
    // two instructions, and no entry path executes at offset 1. The
    // loader refuses it anyway; the walk labels the match report-only.
    System sys;
    auto image = bytes({0xB0, 0x0F, 0x05, 0x11, 0x22, 0x33, 0x44, 0xC3});
    testing::addToy(sys, "spanner").withImage(image);
    try {
        sys.boot();
        FAIL() << "image with a forbidden byte sequence was loaded";
    } catch (const VerifierError &e) {
        EXPECT_NE(std::string(e.what()).find("'syscall' at offset 1"),
                  std::string::npos)
            << e.what();
    }

    const VerifierReport report = verifyImageInter(image, {}, {});
    EXPECT_TRUE(report.accepted());
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].cls, FindingClass::kUnreachable);
    EXPECT_TRUE(report.cfg.ran);
}

TEST(VerifierLoader, RejectsEntryPointIntoMisalignedSequence)
{
    // The same bytes with an export table handing out offset 1: the
    // walk decodes syscall right at the entry point.
    System sys;
    auto image = bytes({0xB0, 0x0F, 0x05, 0x11, 0x22, 0x33, 0x44, 0xC3});
    testing::addToy(sys, "sneaky")
        .withImage(image)
        .withEntryPoints({0, 1});
    try {
        sys.boot();
        FAIL() << "image with a forbidden entry path was loaded";
    } catch (const VerifierError &e) {
        EXPECT_NE(std::string(e.what()).find("syscall"), std::string::npos);
    }
}

TEST(VerifierLoader, RejectsEntryPointOutsideImage)
{
    System sys;
    std::vector<uint8_t> image(64, 0x90);
    image.push_back(0xC3);
    testing::addToy(sys, "broken")
        .withImage(image)
        .withEntryPoints({4096});
    try {
        sys.boot();
        FAIL() << "out-of-range entry point was accepted";
    } catch (const VerifierError &e) {
        EXPECT_NE(std::string(e.what()).find("outside"), std::string::npos);
    }
}

TEST(VerifierLoader, RejectsDeadWrpkruIslandTheWalkSkips)
{
    // jmp over a dead wrpkru island, then nops to a ret.
    auto image = bytes({0xEB, 0x03, 0x0F, 0x01, 0xEF});
    while (image.size() < 127)
        image.push_back(0x90);
    image.push_back(0xC3);
    ComponentSpec spec;
    spec.name = "app";
    spec.image = image;
    expectRefused(spec, "'wrpkru' at offset 2");

    const VerifierReport report = verifyImageInter(image, {}, {});
    EXPECT_TRUE(report.accepted());
    EXPECT_TRUE(report.cfg.ran);
    EXPECT_FALSE(report.cfg.opaque);
    EXPECT_GT(report.cfg.reachableInsns, 0u);
    EXPECT_GT(report.reachableCoverage(), 0.9);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].cls, FindingClass::kUnreachable);
}

TEST(VerifierLoader, VerifierErrorIsALoaderError)
{
    System sys;
    std::vector<uint8_t> image(64, 0x90);
    image[0] = 0x0F;
    image[1] = 0x05;
    testing::addToy(sys, "evil").withImage(image);
    EXPECT_THROW(sys.boot(), LoaderError);
}

TEST(VerifierLoader, RejectsEmbeddedConstantTheWalkReportsOnly)
{
    // A benign stream whose one mov immediate happens to contain the
    // wrpkru bytes; padded with real instructions.
    std::vector<uint8_t> image =
        bytes({0xB8, 0x0F, 0x01, 0xEF, 0x90, 0xC3});
    while (image.size() < 128)
        image.push_back(0x90);
    ComponentSpec spec;
    spec.name = "app";
    spec.image = image;
    expectRefused(spec, "'wrpkru' at offset 1");

    const VerifierReport report = verifyImageInter(image, {}, {});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].cls, FindingClass::kUnreachable);
    EXPECT_EQ(report.findings[0].mnemonic, "wrpkru");
    EXPECT_TRUE(report.accepted());
    EXPECT_EQ(report.imageBytes, 128u);
}

TEST(VerifierLoader, StatsCoverEveryLoadedImage)
{
    System sys;
    testing::addToy(sys, "a");
    testing::addToy(sys, "b");
    testing::addToy(sys, "c", CubicleKind::kShared);
    sys.boot();

    // One verify-cache lookup and the image's bytes per load.
    const Stats &stats = sys.stats();
    const std::size_t imageBytes =
        builder::componentImage(builder::ImageSeed::kApp).size();
    EXPECT_EQ(stats.verifyCacheHits() + stats.verifyCacheMisses(), 3u);
    EXPECT_EQ(stats.verifierBytesScanned(), 3 * imageBytes);
    // Built images are fully decodable instruction streams the walk
    // accepts.
    for (Cid cid = 0; cid < 3; ++cid) {
        const VerifierReport report = audit::imageReport(sys, cid);
        EXPECT_TRUE(report.accepted()) << cid;
        EXPECT_EQ(report.imageBytes, imageBytes) << cid;
        EXPECT_DOUBLE_EQ(report.decodeCoverage(), 1.0) << cid;
    }
}

TEST(VerifyCache, IdenticalImagesLoadFromCache)
{
    verifier::VerifyCache::instance().clear();

    std::vector<uint8_t> shared_image(96, 0x90);
    shared_image.back() = 0xC3;
    std::vector<uint8_t> other_image(96, 0x90);
    other_image[0] = 0x50; // push rax: different bytes
    other_image.back() = 0xC3;

    System sys;
    testing::addToy(sys, "a").withImage(shared_image);
    testing::addToy(sys, "b").withImage(shared_image);
    testing::addToy(sys, "c").withImage(other_image);
    sys.boot();

    // Three verified loads; only two ran the grep.
    const Stats &stats = sys.stats();
    EXPECT_EQ(stats.verifyCacheMisses(), 2u);
    EXPECT_EQ(stats.verifyCacheHits(), 1u);
    EXPECT_EQ(verifier::VerifyCache::instance().size(), 2u);

    // The cached verdict is the grep's.
    bool hit = false;
    EXPECT_FALSE(
        verifier::VerifyCache::instance().scan(shared_image, &hit));
    EXPECT_TRUE(hit);
}

TEST(VerifyCache, HashCollisionDoesNotReplayAVerdict)
{
    verifier::VerifyCache::instance().clear();

    // The key is the image bytes, not a hash of them, so the nearest
    // image to another, one byte apart, still gets its own verdict.
    // rdpkru (0F 01 EE) reads PKRU; wrpkru (0F 01 EF), one bit away,
    // writes it. The two images differ in that byte alone.
    std::vector<uint8_t> reader(64, 0x90);
    reader[10] = 0x0F;
    reader[11] = 0x01;
    reader[12] = 0xEE;
    reader.back() = 0xC3;
    std::vector<uint8_t> writer = reader;
    writer[12] = 0xEF;

    for (int round = 0; round < 2; ++round) {
        {
            System sys;
            testing::addToy(sys, "reader").withImage(reader);
            EXPECT_NO_THROW(sys.boot()) << round;
        }
        System sys;
        testing::addToy(sys, "writer").withImage(writer);
        EXPECT_THROW(sys.boot(), VerifierError) << round;
        // The second round hits the cache for both images, and each
        // hit replays its own verdict.
        EXPECT_EQ(sys.stats().verifyCacheHits(),
                  static_cast<uint64_t>(round))
            << round;
    }
    EXPECT_EQ(verifier::VerifyCache::instance().size(), 2u);
}

TEST(VerifyCache, RejectingImageRejectsAgainOnHit)
{
    verifier::VerifyCache::instance().clear();

    std::vector<uint8_t> evil(64, 0x90);
    evil[0] = 0x0F; // aligned wrpkru
    evil[1] = 0x01;
    evil[2] = 0xEF;

    {
        System sys;
        testing::addToy(sys, "evil").withImage(evil);
        EXPECT_THROW(sys.boot(), VerifierError);
    }
    {
        // Second load is served from the cache — and still rejected.
        System sys;
        testing::addToy(sys, "evil2").withImage(evil);
        EXPECT_THROW(sys.boot(), VerifierError);
        EXPECT_EQ(sys.stats().verifyCacheHits(), 1u);
    }
}

} // namespace
} // namespace cubicleos::core
