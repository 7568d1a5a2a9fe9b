#include "core/verifier/cache.h"

#include <algorithm>

#include "core/verifier/ipcfg.h"

namespace cubicleos::core::verifier {

VerifyCache &
VerifyCache::instance()
{
    static VerifyCache cache;
    return cache;
}

uint64_t
VerifyCache::hashImage(std::span<const uint8_t> image,
                       std::span<const std::size_t> entryPoints,
                       std::span<const EntryTable> tables)
{
    constexpr uint64_t kOffset = 0xcbf29ce484222325ull;
    constexpr uint64_t kPrime = 0x100000001b3ull;
    uint64_t h = kOffset;
    auto mix = [&h](uint8_t byte) {
        h ^= byte;
        h *= kPrime;
    };
    for (uint8_t b : image)
        mix(b);
    for (int i = 0; i < 8; ++i)
        mix(static_cast<uint8_t>(image.size() >> (8 * i)));
    for (std::size_t e : entryPoints) {
        for (int i = 0; i < 8; ++i)
            mix(static_cast<uint8_t>(e >> (8 * i)));
    }
    for (const EntryTable &t : tables) {
        for (int i = 0; i < 8; ++i)
            mix(static_cast<uint8_t>(t.offset >> (8 * i)));
        for (int i = 0; i < 8; ++i)
            mix(static_cast<uint8_t>(t.count >> (8 * i)));
    }
    return h;
}

const VerifierReport *
VerifyCache::find(uint64_t key, std::span<const uint8_t> image,
                  std::span<const std::size_t> entryPoints,
                  std::span<const EntryTable> tables) const
{
    auto [it, end] = entries_.equal_range(key);
    for (; it != end; ++it) {
        const Entry &e = it->second;
        if (std::ranges::equal(e.image, image) &&
            std::ranges::equal(e.entryPoints, entryPoints) &&
            std::ranges::equal(e.tables, tables))
            return &e.report;
    }
    return nullptr;
}

VerifierReport
VerifyCache::verify(std::span<const uint8_t> image,
                    std::span<const std::size_t> entryPoints,
                    std::span<const EntryTable> tables, bool *hit)
{
    const uint64_t key = hashImage(image, entryPoints, tables);
    {
        ReaderLock lock(mu_);
        if (const VerifierReport *cached =
                find(key, image, entryPoints, tables)) {
            if (hit)
                *hit = true;
            return *cached;
        }
    }
    if (hit)
        *hit = false;
    VerifierReport report = verifyImageInter(image, entryPoints, tables);
    {
        WriterLock lock(mu_);
        if (find(key, image, entryPoints, tables) == nullptr) {
            if (entries_.size() >= kMaxEntries)
                entries_.clear();
            entries_.emplace(
                key, Entry{{image.begin(), image.end()},
                           {entryPoints.begin(), entryPoints.end()},
                           {tables.begin(), tables.end()},
                           report});
        }
    }
    return report;
}

void
VerifyCache::clear()
{
    WriterLock lock(mu_);
    entries_.clear();
}

std::size_t
VerifyCache::size() const
{
    ReaderLock lock(mu_);
    return entries_.size();
}

} // namespace cubicleos::core::verifier
