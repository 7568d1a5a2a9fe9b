/**
 * @file
 * Verification cache: the loader's grep verdict, keyed by the image
 * bytes.
 *
 * The loader's verdict is the byte-grep's first forbidden match
 * (core/codescan.h), which depends on the image bytes alone, so
 * scanning the same image twice is pure waste — and common: every
 * System in a test binary reloads the same built components, and a
 * deployment restarting a component reloads an identical file. The
 * cache maps each image's bytes to that first match (or to none). The
 * key is the bytes themselves, so a hit needs an identical image and
 * no other image can replay its verdict.
 *
 * The cache is process-global (images are immutable inputs, not System
 * state) and thread-safe: lookups take a shared lock, inserts an
 * exclusive one. Two threads missing on the same image both scan; the
 * second insert finds the first's entry and keeps it — the verdicts
 * are identical, so the race is benign.
 */

#ifndef CUBICLEOS_CORE_VERIFIER_CACHE_H_
#define CUBICLEOS_CORE_VERIFIER_CACHE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/codescan.h"
#include "core/locking.h"

namespace cubicleos::core::verifier {

/** Process-global memo of grep verdicts, keyed by image content. */
class VerifyCache {
  public:
    /** The process-wide instance used by the loader. */
    static VerifyCache &instance();

    /**
     * The first forbidden match in @p image (scanCodeImage), or no
     * value when the image is clean, consulting the cache first.
     *
     * @param hit if non-null, set to true when the verdict came from
     *        the cache without re-running the grep.
     */
    std::optional<ForbiddenInsn> scan(const std::vector<uint8_t> &image,
                                      bool *hit = nullptr);

    /** Drops every entry (tests; and the eviction policy when full). */
    void clear();

    /** Number of cached verdicts. */
    std::size_t size() const;

  private:
    /**
     * Orders images by size, then bytes, so only same-size images
     * compare bytes. (std::less's <=> on byte vectors also draws a
     * GCC 12 -Wstringop-overread false positive at -O3.)
     */
    struct ImageLess {
        bool operator()(const std::vector<uint8_t> &a,
                        const std::vector<uint8_t> &b) const
        {
            if (a.size() != b.size())
                return a.size() < b.size();
            return std::ranges::lexicographical_compare(a, b);
        }
    };

    /** Eviction bound: clearing at the cap keeps the map small
     *  without LRU bookkeeping on the (rare) insert path. */
    static constexpr std::size_t kMaxEntries = 256;

    // Rank kVerifyCache: taken while the loader holds loaderMutex_
    // (rank kLoader) and before any lower level.
    mutable SharedMutex mu_{LockRank::kVerifyCache, "verifier.cache"};
    std::map<std::vector<uint8_t>, std::optional<ForbiddenInsn>, ImageLess>
        entries_ GUARDED_BY(mu_);
};

} // namespace cubicleos::core::verifier

#endif // CUBICLEOS_CORE_VERIFIER_CACHE_H_
