/**
 * @file
 * Differential properties: byte-grep verdicts versus the instruction-
 * aware verifier, over many seeded random images.
 *
 * The load-time contract is that the old conservative grep is always
 * at least as strict as the new verifier: every verifier finding is
 * located by the grep, so
 *
 *   - grep clean            ⟹ verifier accepts (no findings at all);
 *   - verifier rejects      ⟹ grep finds something;
 *   - finding offsets       ⊆ grep match offsets (and counts agree).
 *
 * Images are drawn from three distributions: pure random bytes (mostly
 * undecodable — exercises the conservative resynchronisation path),
 * well-formed benign streams, and benign streams with forbidden
 * sequences spliced in at random offsets, including page-straddling
 * ones.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "builder/image.h"
#include "core/codescan.h"
#include "core/verifier/ipcfg.h"
#include "core/verifier/scanner.h"
#include "hw/prng.h"

namespace cubicleos::core {
namespace {

using verifier::FindingClass;
using verifier::VerifierReport;
using verifier::verifyImage;
using verifier::verifyImageInter;

std::vector<uint8_t>
randomBytes(std::size_t size, uint64_t seed)
{
    std::vector<uint8_t> image(size);
    hw::Prng prng(seed);
    for (auto &b : image)
        b = static_cast<uint8_t>(prng.nextBelow(256));
    return image;
}

/** Checks the grep-is-stricter contract on one image. */
void
checkDifferential(const std::vector<uint8_t> &image, uint64_t seed)
{
    const auto grepHits = scanCodeImageAll(image);
    const VerifierReport report = verifyImage(image);

    // Every grep match is classified; nothing invented, nothing lost.
    ASSERT_EQ(report.findings.size(), grepHits.size()) << seed;
    for (std::size_t i = 0; i < grepHits.size(); ++i) {
        EXPECT_EQ(report.findings[i].offset, grepHits[i].offset) << seed;
        EXPECT_EQ(report.findings[i].mnemonic, grepHits[i].mnemonic)
            << seed;
    }

    if (!scanCodeImage(image).has_value()) {
        EXPECT_TRUE(report.accepted())
            << "verifier rejected a grep-clean image, seed " << seed;
    }
    if (!report.accepted()) {
        EXPECT_TRUE(scanCodeImage(image).has_value())
            << "verifier rejected what the grep missed, seed " << seed;
    }
}

TEST(VerifierDiff, RandomByteImages)
{
    for (uint64_t seed = 1; seed <= 64; ++seed)
        checkDifferential(randomBytes(4096, seed), seed);
}

TEST(VerifierDiff, BenignStreamImages)
{
    for (uint64_t seed = 1; seed <= 64; ++seed) {
        auto image = builder::makeBenignImage(4096, seed);
        checkDifferential(image, seed);
        // Benign streams must sail through both scanners.
        EXPECT_FALSE(scanCodeImage(image).has_value()) << seed;
        EXPECT_TRUE(verifyImage(image).accepted()) << seed;
    }
}

TEST(VerifierDiff, BenignStreamsWithSplicedForbiddenSequences)
{
    const uint8_t sequences[][3] = {
        {0x0F, 0x01, 0xEF}, // wrpkru
        {0x0F, 0x05, 0x90}, // syscall (+pad)
        {0xCD, 0x80, 0x90}, // int80 (+pad)
        {0x0F, 0xAE, 0x28}, // xrstor [rax]
    };
    hw::Prng prng(0xD1FFu);
    for (uint64_t seed = 1; seed <= 64; ++seed) {
        auto image = builder::makeBenignImage(4096, seed);
        const auto &seq = sequences[prng.nextBelow(4)];
        const auto at = static_cast<std::size_t>(
            prng.nextBelow(image.size() - 3));
        std::copy(seq, seq + 3, image.begin() + at);

        // The splice may land on a boundary (aligned), mid-instruction
        // (misaligned or embedded) — in every case the differential
        // contract must hold.
        checkDifferential(image, seed);
        EXPECT_TRUE(scanCodeImage(image).has_value()) << seed;
    }
}

// ----------------------------------------------------------------------
// The reachability walk's contract
// ----------------------------------------------------------------------

/**
 * Checks the walk's contract on one image, walked from offset 0:
 *   - an opaque walk (a reachable byte it cannot decode) rejects every
 *     finding: it proves nothing dead;
 *   - otherwise every rejecting finding is kAligned (a reachable
 *     forbidden instruction) or kIndirectReachable;
 *   - and kIndirectReachable appears only when an unresolved indirect
 *     jump exists.
 */
void
checkReachabilityMonotone(const std::vector<uint8_t> &image, uint64_t seed)
{
    const VerifierReport r = verifyImageInter(image, {}, {});
    if (r.cfg.opaque) {
        for (const verifier::CodeFinding &f : r.findings)
            EXPECT_TRUE(f.rejecting()) << seed;
        return;
    }
    const bool unresolvedJump = std::any_of(
        r.audit.indirectSites.begin(), r.audit.indirectSites.end(),
        [](const verifier::IndirectSiteRecord &s) {
            return s.isJump && !s.resolved;
        });
    for (const verifier::CodeFinding &f : r.findings) {
        if (!f.rejecting())
            continue;
        EXPECT_TRUE(f.cls == FindingClass::kAligned ||
                    f.cls == FindingClass::kIndirectReachable)
            << seed;
        if (f.cls == FindingClass::kIndirectReachable) {
            EXPECT_TRUE(unresolvedJump) << seed;
        }
    }
}

TEST(VerifierDiff, ReachabilityMonotoneOnRandomBytes)
{
    // Random byte soup is almost always opaque: the property reduces
    // to "every finding rejects".
    for (uint64_t seed = 1; seed <= 64; ++seed)
        checkReachabilityMonotone(randomBytes(4096, seed), seed);
}

TEST(VerifierDiff, ReachabilityMonotoneOnBenignStreams)
{
    for (uint64_t seed = 1; seed <= 64; ++seed) {
        auto image = builder::makeBenignImage(4096, seed);
        checkReachabilityMonotone(image, seed);
        EXPECT_TRUE(verifyImageInter(image, {}, {}).accepted()) << seed;
    }
}

TEST(VerifierDiff, ReachabilityMonotoneOnSplicedStreams)
{
    const uint8_t sequences[][3] = {
        {0x0F, 0x01, 0xEF}, // wrpkru
        {0x0F, 0x05, 0x90}, // syscall (+pad)
        {0xCD, 0x80, 0x90}, // int80 (+pad)
        {0x0F, 0xAE, 0x28}, // xrstor [rax]
    };
    hw::Prng prng(0xCF6u);
    for (uint64_t seed = 1; seed <= 128; ++seed) {
        auto image = builder::makeBenignImage(4096, seed);
        const auto &seq = sequences[prng.nextBelow(4)];
        const auto at = static_cast<std::size_t>(
            prng.nextBelow(image.size() - 3));
        std::copy(seq, seq + 3, image.begin() + at);
        checkReachabilityMonotone(image, seed);
    }
}

TEST(VerifierDiff, NopSledSpliceRejectsUnderBothPasses)
{
    // Inside a nop sled every byte is a reachable boundary: a spliced
    // forbidden sequence must fail the sweep AND the walk wherever it
    // lands before the first ret.
    hw::Prng prng(0xABCDu);
    for (int round = 0; round < 32; ++round) {
        std::vector<uint8_t> image(2048, 0x90);
        image.back() = 0xC3;
        const auto at =
            static_cast<std::size_t>(prng.nextBelow(image.size() - 4));
        image[at] = 0x0F;
        image[at + 1] = 0x01;
        image[at + 2] = 0xEF;
        EXPECT_FALSE(verifyImage(image).accepted()) << at;
        EXPECT_FALSE(verifyImageInter(image, {}, {}).accepted()) << at;
    }
}

TEST(VerifierDiff, RealComponentSnapshotsAcceptedWithFullDecodeCoverage)
{
    // The loader's synthesized component images, at every size the
    // in-tree deployments use: the walk accepts, and the sweep decodes
    // every byte.
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        for (std::size_t pages = 1; pages <= 4; ++pages) {
            auto image = builder::makeBenignImage(pages * 4096, seed);
            const VerifierReport r = verifyImageInter(image, {}, {});
            EXPECT_TRUE(r.accepted()) << seed;
            EXPECT_FALSE(r.cfg.opaque) << seed;
            EXPECT_DOUBLE_EQ(r.decodeCoverage(), 1.0) << seed;
        }
    }
}

TEST(VerifierDiff, PageStraddlingSequencesAreAlwaysCaught)
{
    // Forbidden sequence straddling the 4 KiB page boundary of a nop
    // sled: both scanners must find it, and the verifier must reject
    // (every nop offset is an instruction boundary).
    for (std::size_t lead = 1; lead <= 2; ++lead) {
        std::vector<uint8_t> image(8192, 0x90);
        const std::size_t at = 4096 - lead;
        image[at] = 0x0F;
        image[at + 1] = 0x01;
        image[at + 2] = 0xEF;

        auto hit = scanCodeImage(image);
        ASSERT_TRUE(hit.has_value()) << lead;
        EXPECT_EQ(hit->offset, at);

        VerifierReport report = verifyImage(image);
        EXPECT_FALSE(report.accepted()) << lead;
        ASSERT_EQ(report.findings.size(), 1u);
        EXPECT_EQ(report.findings[0].offset, at);
    }
}

} // namespace
} // namespace cubicleos::core
