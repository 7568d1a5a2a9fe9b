/**
 * @file
 * Verification cache keyed by the verifier's inputs: image content,
 * entry points and declared indirect-target tables.
 *
 * The reachability walk is deterministic in the image bytes, the entry
 * points and the declared tables, so verifying the same image twice is
 * pure waste — and common: every System in a test binary reloads the
 * same built components, and a deployment restarting a component
 * reloads an identical file. The cache memoises the full
 * VerifierReport together with its inputs (image bytes, entry points,
 * declared tables). A 64-bit FNV-1a hash of the inputs only picks the
 * bucket: a hit requires all three inputs to be equal, so neither a
 * hash collision nor an input that hashes like another replays a
 * verdict it did not earn.
 *
 * The cache is process-global (images are immutable inputs, not System
 * state) and thread-safe: lookups take a shared lock, inserts an
 * exclusive one. Two threads missing on the same inputs both verify;
 * the second finds the first's entry and does not insert again — the
 * results are identical, so the race is benign.
 */

#ifndef CUBICLEOS_CORE_VERIFIER_CACHE_H_
#define CUBICLEOS_CORE_VERIFIER_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/locking.h"
#include "core/verifier/report.h"

namespace cubicleos::core::verifier {

/** Process-global memo of verifier verdicts, keyed by image content. */
class VerifyCache {
  public:
    /** The process-wide instance used by the loader. */
    static VerifyCache &instance();

    /**
     * Verifies @p image from @p entryPoints, consulting the cache
     * first. Semantically identical to verifier::verifyImageInter
     * with the declared indirect-target @p tables (which feed the key:
     * the same bytes under different tables verify apart).
     *
     * @param hit if non-null, set to true when the report came from
     *        the cache without re-running the walk.
     */
    VerifierReport verify(std::span<const uint8_t> image,
                          std::span<const std::size_t> entryPoints,
                          std::span<const EntryTable> tables = {},
                          bool *hit = nullptr);

    /** Drops every entry (tests; and the eviction policy when full). */
    void clear();

    /** Number of cached reports. */
    std::size_t size() const;

    /**
     * Bucket hash: FNV-1a 64 over the image bytes, then the image
     * size, each entry-point offset and each declared table's
     * (offset, count). Inputs that differ can share it; the cache
     * tells them apart by comparing the stored inputs.
     */
    static uint64_t hashImage(std::span<const uint8_t> image,
                              std::span<const std::size_t> entryPoints,
                              std::span<const EntryTable> tables = {});

  private:
    /** One memoised verdict and the exact inputs that earned it. */
    struct Entry {
        std::vector<uint8_t> image;
        std::vector<std::size_t> entryPoints;
        std::vector<EntryTable> tables;
        VerifierReport report;
    };

    /** The report stored for exactly these inputs under @p key, or null. */
    const VerifierReport *find(uint64_t key,
                               std::span<const uint8_t> image,
                               std::span<const std::size_t> entryPoints,
                               std::span<const EntryTable> tables) const
        REQUIRES_SHARED(mu_);

    /** Eviction bound: clearing at the cap keeps the map O(1)-ish
     *  without LRU bookkeeping on the (rare) insert path. */
    static constexpr std::size_t kMaxEntries = 256;

    // Rank kVerifyCache: taken while the loader holds loaderMutex_
    // (rank kLoader) and before any lower level.
    mutable SharedMutex mu_{LockRank::kVerifyCache, "verifier.cache"};
    std::unordered_multimap<uint64_t, Entry> entries_ GUARDED_BY(mu_);
};

} // namespace cubicleos::core::verifier

#endif // CUBICLEOS_CORE_VERIFIER_CACHE_H_
