/**
 * @file
 * The Internet checksum against an independent byte-at-a-time
 * reference. Both ends of every TCP test share inetChecksum(), so a
 * checksum that is wrong but consistent would pass all of them; this
 * test pins its value instead.
 */

#include <gtest/gtest.h>

#include <vector>

#include "hw/prng.h"
#include "libos/inet_checksum.h"

namespace cubicleos::libos {
namespace {

/** RFC 1071 one byte at a time: even offsets are high-order bytes. */
uint16_t
referenceChecksum(const uint8_t *data, std::size_t len, uint64_t sum)
{
    for (std::size_t i = 0; i < len; ++i)
        sum += i % 2 == 0 ? uint64_t{data[i]} << 8 : uint64_t{data[i]};
    while (sum > 0xFFFF)
        sum = (sum & 0xFFFF) + (sum >> 16);
    return static_cast<uint16_t>(~sum & 0xFFFF);
}

TEST(InetChecksum, Rfc1071Example)
{
    // RFC 1071 §3: these bytes sum to 0xDDF2.
    const uint8_t bytes[] = {0x00, 0x01, 0xF2, 0x03,
                             0xF4, 0xF5, 0xF6, 0xF7};
    EXPECT_EQ(inetChecksum(bytes, sizeof(bytes)), 0x220D);
    EXPECT_EQ(referenceChecksum(bytes, sizeof(bytes), 0), 0x220D);
}

/**
 * Every length 0-3000 at every start offset 0-7, with a zero and a
 * random initial partial sum, over random bytes and over all-0x00 and
 * all-0xFF buffers (one's-complement arithmetic has two zeros).
 */
TEST(InetChecksum, MatchesByteReferenceAtEveryLengthAndOffset)
{
    constexpr std::size_t kMaxLen = 3000;
    constexpr std::size_t kOffsets = 8;
    hw::Prng prng(0xC5C5);

    std::vector<uint8_t> random(kMaxLen + kOffsets);
    for (auto &b : random)
        b = static_cast<uint8_t>(prng.next());
    const std::vector<std::vector<uint8_t>> fills = {
        random,
        std::vector<uint8_t>(kMaxLen + kOffsets, 0x00),
        std::vector<uint8_t>(kMaxLen + kOffsets, 0xFF),
    };

    std::size_t cases = 0, mismatches = 0;
    for (std::size_t f = 0; f < fills.size(); ++f) {
        for (const bool zero_sum : {true, false}) {
            for (std::size_t off = 0; off < kOffsets; ++off) {
                for (std::size_t len = 0; len <= kMaxLen; ++len) {
                    const uint64_t sum = zero_sum ? 0 : prng.next() >> 24;
                    const uint8_t *data = fills[f].data() + off;
                    const uint16_t got = inetChecksum(data, len, sum);
                    const uint16_t want =
                        referenceChecksum(data, len, sum);
                    ++cases;
                    if (got != want && ++mismatches <= 5) {
                        ADD_FAILURE()
                            << "fill " << f << " off " << off << " len "
                            << len << " sum " << sum << ": got " << got
                            << ", want " << want;
                    }
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << cases << " cases";
}

} // namespace
} // namespace cubicleos::libos
