#include "core/verifier/cache.h"

namespace cubicleos::core::verifier {

VerifyCache &
VerifyCache::instance()
{
    static VerifyCache cache;
    return cache;
}

std::optional<ForbiddenInsn>
VerifyCache::scan(const std::vector<uint8_t> &image, bool *hit)
{
    {
        ReaderLock lock(mu_);
        if (auto it = entries_.find(image); it != entries_.end()) {
            if (hit)
                *hit = true;
            return it->second;
        }
    }
    if (hit)
        *hit = false;
    std::optional<ForbiddenInsn> match = scanCodeImage(image);
    {
        WriterLock lock(mu_);
        if (entries_.size() >= kMaxEntries)
            entries_.clear();
        entries_.emplace(image, match);
    }
    return match;
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
