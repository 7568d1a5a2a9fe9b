/**
 * @file
 * Conservative byte-pattern scan for isolation-subverting instructions.
 *
 * The loader refuses to make code pages executable if they contain
 * encodings that could undermine the isolation mechanisms (paper §5.4):
 * wrpkru (0F 01 EF), xsetbv (0F 01 D1), xrstor with its PKRU-restoring
 * state component (0F AE /5, matched as 0F AE with ModRM reg field 5),
 * syscall (0F 05), sysenter (0F 34) and int 0x80 (CD 80). The scan is
 * performed over the full image so sequences spanning page boundaries
 * are found too.
 *
 * This byte-grep is deliberately conservative: it reports every
 * occurrence of the patterns, including bytes buried inside a longer
 * instruction's immediate and benign aliases of the masked xrstor
 * pattern (lfence shares its reg field). The instruction-aware
 * verifier in core/verifier classifies each match before the loader
 * decides; the grep's verdict is therefore always at least as strict
 * as the verifier's.
 */

#ifndef CUBICLEOS_CORE_CODESCAN_H_
#define CUBICLEOS_CORE_CODESCAN_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace cubicleos::core {

/** A forbidden instruction pattern found by the scanner. */
struct ForbiddenInsn {
    std::size_t offset;   ///< byte offset in the image
    std::string mnemonic; ///< e.g. "wrpkru"
    std::size_t length;   ///< matched pattern length in bytes
};

/**
 * One forbidden encoding: up to three bytes, each compared under a
 * mask (mask 0xFF = exact byte, 0x38 = ModRM reg field, 0 = unused).
 */
struct ForbiddenPattern {
    const char *mnemonic;
    uint8_t bytes[3];
    uint8_t mask[3];
    std::size_t len;
};

/** The forbidden-pattern table (shared with the verifier). */
std::span<const ForbiddenPattern> forbiddenPatterns();

/**
 * Scans @p image for forbidden instruction encodings.
 *
 * @return the first match, or no value if the image is clean.
 */
std::optional<ForbiddenInsn> scanCodeImage(std::span<const uint8_t> image);

/**
 * Scans and collects every match (diagnostics / verifier input).
 * Matches are non-overlapping: after a match the scan resumes past the
 * matched bytes, so a sequence is reported once, not at every
 * sub-position.
 */
std::vector<ForbiddenInsn> scanCodeImageAll(std::span<const uint8_t> image);

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_CODESCAN_H_
