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
 * This byte-grep is the loader's whole verdict, and deliberately
 * conservative: it reports every occurrence of the patterns, including
 * bytes buried inside a longer instruction's immediate and benign
 * aliases of the masked xrstor pattern (lfence shares its reg field),
 * and the loader refuses an image on any match. Whether a path
 * executes a match is the auditor's question, outside the trusted
 * core: its reachability walk (audit/ipcfg.h) labels each match. The
 * grep refuses every image the walk would.
 */

#ifndef CUBICLEOS_CORE_CODESCAN_H_
#define CUBICLEOS_CORE_CODESCAN_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace cubicleos::core {

/** A forbidden instruction pattern found by the scanner. */
struct ForbiddenInsn {
    std::size_t offset;   ///< byte offset in the image
    std::string mnemonic; ///< e.g. "wrpkru"
    std::size_t length;   ///< matched pattern length in bytes
};

/**
 * Scans @p image for forbidden instruction encodings.
 *
 * @return the first match, or no value if the image is clean.
 */
std::optional<ForbiddenInsn> scanCodeImage(std::span<const uint8_t> image);

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_CODESCAN_H_
