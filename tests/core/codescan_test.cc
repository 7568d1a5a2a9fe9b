/**
 * @file
 * Tests for the loader's forbidden-instruction scanner (paper §5.4).
 */

#include <gtest/gtest.h>

#include "audit/ipcfg.h"
#include "builder/image.h"
#include "core/codescan.h"

namespace cubicleos::core {
namespace {

std::vector<uint8_t>
bytes(std::initializer_list<int> list)
{
    std::vector<uint8_t> v;
    for (int b : list)
        v.push_back(static_cast<uint8_t>(b));
    return v;
}

TEST(CodeScan, CleanImagePasses)
{
    auto image = bytes({0x90, 0x90, 0x48, 0x89, 0xC3, 0x90});
    EXPECT_FALSE(scanCodeImage(image).has_value());
}

TEST(CodeScan, DetectsWrpkru)
{
    auto image = bytes({0x90, 0x0F, 0x01, 0xEF, 0x90});
    auto hit = scanCodeImage(image);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->mnemonic, "wrpkru");
    EXPECT_EQ(hit->offset, 1u);
}

TEST(CodeScan, DetectsSyscall)
{
    auto image = bytes({0x48, 0x31, 0xC0, 0x0F, 0x05});
    auto hit = scanCodeImage(image);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->mnemonic, "syscall");
}

TEST(CodeScan, DetectsSysenter)
{
    auto image = bytes({0x0F, 0x34});
    ASSERT_TRUE(scanCodeImage(image).has_value());
    EXPECT_EQ(scanCodeImage(image)->mnemonic, "sysenter");
}

TEST(CodeScan, DetectsInt80)
{
    auto image = bytes({0xCD, 0x80});
    ASSERT_TRUE(scanCodeImage(image).has_value());
    EXPECT_EQ(scanCodeImage(image)->mnemonic, "int80");
}

TEST(CodeScan, DetectsXrstorMemoryForms)
{
    // 0F AE /5: any ModRM with reg field 5 matches the masked pattern.
    for (int modrm : {0x28, 0x68, 0xA8, 0x2C, 0x6D}) {
        auto image = bytes({0x90, 0x0F, 0xAE, modrm});
        auto hit = scanCodeImage(image);
        ASSERT_TRUE(hit.has_value()) << modrm;
        EXPECT_EQ(hit->mnemonic, "xrstor") << modrm;
        EXPECT_EQ(hit->offset, 1u);
        EXPECT_EQ(hit->length, 3u);
    }
}

TEST(CodeScan, XrstorMaskMatchesRegisterAlias)
{
    // lfence (0F AE E8) shares reg field 5: the conservative grep
    // flags it too; the verifier downgrades it (benign alias).
    auto image = bytes({0x0F, 0xAE, 0xE8});
    auto hit = scanCodeImage(image);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->mnemonic, "xrstor");
}

TEST(CodeScan, OtherXsaveGroupMembersAreNotXrstor)
{
    // reg fields other than 5 (xsave /4, mfence /6, clflush /7, ...).
    for (int modrm : {0x20, 0x00, 0xF0, 0x38, 0x08}) {
        auto image = bytes({0x0F, 0xAE, modrm});
        EXPECT_FALSE(scanCodeImage(image).has_value()) << modrm;
    }
}

TEST(CodeScan, DetectsSequenceSpanningPageBoundary)
{
    // wrpkru straddles the 4096-byte page boundary: byte 0x0F at 4095.
    std::vector<uint8_t> image(8192, 0x90);
    image[4095] = 0x0F;
    image[4096] = 0x01;
    image[4097] = 0xEF;
    auto hit = scanCodeImage(image);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->offset, 4095u);
    EXPECT_EQ(hit->mnemonic, "wrpkru");
}

TEST(CodeScan, PrefixOnlyIsNotAMatch)
{
    // 0F 01 without EF is a different instruction group (e.g. SGDT).
    auto image = bytes({0x0F, 0x01, 0x00});
    EXPECT_FALSE(scanCodeImage(image).has_value());
}

TEST(CodeScan, TruncatedSequenceAtEndDoesNotMatch)
{
    auto image = bytes({0x90, 0x0F, 0x01});
    EXPECT_FALSE(scanCodeImage(image).has_value());
}

TEST(CodeScan, AllFindsEveryOccurrence)
{
    auto image = bytes({0x0F, 0x05, 0x90, 0x0F, 0x01, 0xEF, 0xCD, 0x80});
    auto hits = audit::grepMatches(image);
    ASSERT_EQ(hits.size(), 3u);
    EXPECT_EQ(hits[0].mnemonic, "syscall");
    EXPECT_EQ(hits[1].mnemonic, "wrpkru");
    EXPECT_EQ(hits[2].mnemonic, "int80");
}

TEST(CodeScan, AllReportsAdjacentSequencesExactlyOnceEach)
{
    // Regression: the all-matches scan must resume past a match, so
    // back-to-back sequences yield one entry each, with no duplicate
    // or overlapping reports from the matched bytes' interior.
    auto image = bytes({0x0F, 0x01, 0xEF, 0x0F, 0x01, 0xEF,
                        0xCD, 0x80, 0xCD, 0x80});
    auto hits = audit::grepMatches(image);
    ASSERT_EQ(hits.size(), 4u);
    EXPECT_EQ(hits[0].offset, 0u);
    EXPECT_EQ(hits[1].offset, 3u);
    EXPECT_EQ(hits[2].offset, 6u);
    EXPECT_EQ(hits[3].offset, 8u);
}

TEST(CodeScan, AllDoesNotRescanMatchedInterior)
{
    // 0F AE 28 (xrstor) followed by 80: the 0x28 0x80 tail of the
    // match must not seed further matches, and the scan continues
    // cleanly after it (syscall at offset 4).
    auto image = bytes({0x0F, 0xAE, 0x28, 0x80, 0x0F, 0x05});
    auto hits = audit::grepMatches(image);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0].mnemonic, "xrstor");
    EXPECT_EQ(hits[0].offset, 0u);
    EXPECT_EQ(hits[1].mnemonic, "syscall");
    EXPECT_EQ(hits[1].offset, 4u);
}

TEST(CodeScan, ReportsMatchLengths)
{
    auto image = bytes({0x0F, 0x05, 0x90, 0x0F, 0x01, 0xEF});
    auto hits = audit::grepMatches(image);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0].length, 2u);
    EXPECT_EQ(hits[1].length, 3u);
}

TEST(CodeScan, DetectsEveryForbiddenEncoding)
{
    struct Case {
        std::vector<uint8_t> encoding;
        const char *mnemonic;
    };
    const Case cases[] = {
        {bytes({0x0F, 0x01, 0xEF}), "wrpkru"},
        {bytes({0x0F, 0x01, 0xD1}), "xsetbv"},
        {bytes({0x0F, 0xAE, 0x28}), "xrstor"},
        {bytes({0x0F, 0x05}), "syscall"},
        {bytes({0x0F, 0x34}), "sysenter"},
        {bytes({0xCD, 0x80}), "int80"},
    };
    for (const Case &c : cases) {
        auto image = bytes({0x90}); // nop, then the encoding
        image.insert(image.end(), c.encoding.begin(), c.encoding.end());
        auto hits = audit::grepMatches(image);
        ASSERT_EQ(hits.size(), 1u) << c.mnemonic;
        EXPECT_EQ(hits[0].offset, 1u) << c.mnemonic;
        EXPECT_EQ(hits[0].mnemonic, c.mnemonic);
        EXPECT_EQ(hits[0].length, c.encoding.size()) << c.mnemonic;
    }
}

TEST(CodeScan, EmptyImageIsClean)
{
    EXPECT_FALSE(scanCodeImage({}).has_value());
}

TEST(CodeScan, BenignImagesAreAlwaysClean)
{
    for (uint64_t seed = 1; seed <= 32; ++seed) {
        auto image = builder::makeBenignImage(16384, seed);
        EXPECT_EQ(image.size(), 16384u);
        EXPECT_FALSE(scanCodeImage(image).has_value()) << seed;
    }
}

} // namespace
} // namespace cubicleos::core
