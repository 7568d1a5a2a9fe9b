/**
 * @file
 * The image builder: the machine code a component ships.
 *
 * The paper's builder (§5.2) is a build-time tool beside the monitor;
 * the loader only verifies and maps the images it is handed. Components
 * in this reproduction are native C++, so their "binary image" — the
 * thing the loader scans and maps execute-only — is synthesised here,
 * outside the trusted core, and carried in ComponentSpec::image.
 */

#ifndef CUBICLEOS_BUILDER_IMAGE_H_
#define CUBICLEOS_BUILDER_IMAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/verifier/report.h"

namespace cubicleos::builder {

/**
 * Generates a benign pseudo code image of @p size bytes, deterministic
 * in @p seed, guaranteed to contain no forbidden sequence. The image
 * is a well-formed x86-64 instruction stream (fully decodable by the
 * verifier's linear sweep): 0F appears only before a benign two-byte
 * opcode and CD is never emitted, so no forbidden pattern can arise
 * even across instruction boundaries. The stream also carries the
 * indirect-dispatch idioms pass 3 resolves — bounded-switch jump
 * tables and rip-relative lea/call pairs, plus the occasional naked
 * indirect call that stays CFI-trusted — so loaded images exercise
 * the interprocedural auditor end to end.
 *
 * The generator seeds its PRNG with @p seed | 1, so seeds 2k and
 * 2k + 1 yield the same image.
 *
 * When @p entries is non-null it receives the function entry offsets
 * the generator knows by construction: offset 0 plus the offset after
 * every emitted ret. Feeding them to the reachability walk as entry
 * points makes the whole stream reachable, the way a real component's
 * export table covers its text section.
 */
std::vector<uint8_t>
makeBenignImage(std::size_t size, uint64_t seed,
                std::vector<std::size_t> *entries = nullptr);

/**
 * Like makeBenignImage, but finished the way a CFI-hardened build
 * ships: the stream is sealed with a terminal ret and followed by a
 * builder-declared entry table (one 4-byte slot naming offset 0, the
 * canonical address-taken entry). Declaring @p table in
 * ComponentSpec::indirectTables lets verifier pass 3 resolve the
 * stream's residual naked indirect calls entry-table-style instead of
 * reporting them opaque — the idiom for components loaded at scale,
 * where deployment audits bound the per-cubicle unresolved rate.
 */
std::vector<uint8_t>
makeCfiImage(std::size_t size, uint64_t seed,
             core::verifier::EntryTable *table,
             std::vector<std::size_t> *entries = nullptr);

/**
 * Fixed image seeds of the in-tree components: each one's 1-based slot
 * in the Fig. 5 NGINX load order, and every application (NGINX, the
 * SQLite app, the crash lab's database, test and bench components)
 * takes the application slot. makeBenignImage folds seed 2k into
 * 2k + 1, so neighbouring slots share an image: a deployment's
 * verify-cache misses count its distinct images, not its components.
 */
enum class ImageSeed : uint64_t {
    kPlat = 1,
    kAlloc,
    kTime,
    kVfscore,
    kRamfs,
    kNetdev,
    kLwip,
    kLibc,
    kRandom,
    kCtype,
    kUkmath,
    kApp,
    kBoot,
};

/**
 * The image the component in @p seed's slot ships: 8 KiB (two pages)
 * of makeBenignImage output, with no declared entries or tables (the
 * reachability walk starts at offset 0). Built once per process.
 */
const std::vector<uint8_t> &componentImage(ImageSeed seed);

} // namespace cubicleos::builder

#endif // CUBICLEOS_BUILDER_IMAGE_H_
