#include "hw/page_table.h"

#include <sys/mman.h>

#include <cassert>
#include <new>

namespace cubicleos::hw {

namespace {

/**
 * Maps @p bytes of private anonymous memory. The host zero-fills each
 * page at its first touch, so nothing is zeroed (or resident) here.
 */
std::byte *
mapDemandZero(std::size_t bytes)
{
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return static_cast<std::byte *>(p);
}

} // namespace

void
AddressSpace::Unmapper::operator()(std::byte *p) const
{
    munmap(p, bytes);
}

AddressSpace::AddressSpace(std::size_t num_pages, CycleClock *clock)
    : memory_(mapDemandZero(num_pages * kPageSize),
              Unmapper{num_pages * kPageSize}),
      entries_(num_pages),
      groupKeys_((num_pages + kKeyGroupPages - 1) / kKeyGroupPages),
      clock_(clock)
{
}

void
AddressSpace::map(std::size_t first, std::size_t n, uint8_t perms,
                  uint8_t pkey)
{
    assert(first + n <= entries_.size());
    for (std::size_t i = first; i < first + n; ++i) {
        entries_[i].present = true;
        entries_[i].perms = perms;
        entries_[i].pkey = pkey;
    }
    flagKey(first, n, pkey);
}

void
AddressSpace::unmap(std::size_t first, std::size_t n)
{
    assert(first + n <= entries_.size());
    for (std::size_t i = first; i < first + n; ++i)
        entries_[i] = PageEntry{};
}

std::size_t
AddressSpace::setKeyRange(std::size_t first, std::size_t n, uint8_t pkey)
{
    assert(first + n <= entries_.size());
    for (std::size_t i = first; i < first + n; ++i)
        entries_[i].pkey = pkey; // atomic store; concurrent checks see
                                 // either the old or the new tag
    flagKey(first, n, pkey);
    retags_.fetchAdd(1);
    retagPages_.fetchAdd(n);
    if (clock_)
        clock_->charge(cost::kPkeyMprotect);
    return n;
}

void
AddressSpace::flagKey(std::size_t first, std::size_t n, uint8_t key)
{
    if (n == 0)
        return;
    // After the tag stores, and never skipped when the bit looks set:
    // a sweep whose clear reads this fetch-or must also see the tags
    // (see forEachKeyRun).
    const uint16_t bit = keyBit(key);
    const std::size_t last = (first + n - 1) / kKeyGroupPages;
    for (std::size_t g = first / kKeyGroupPages; g <= last; ++g)
        groupKeys_[g].fetch_or(bit, std::memory_order_release);
}

void
AddressSpace::setPerms(std::size_t first, std::size_t n, uint8_t perms)
{
    assert(first + n <= entries_.size());
    for (std::size_t i = first; i < first + n; ++i)
        entries_[i].perms = perms;
}

std::optional<Fault>
AddressSpace::check(const Mpk &mpk, const Pkru &pkru, const void *ptr,
                    std::size_t len, Access access) const
{
    if (len == 0)
        return std::nullopt;
    if (!contains(ptr)) {
        return Fault{ptr, access, FaultReason::kOutsideSpace, 0};
    }
    const auto *last =
        static_cast<const std::byte *>(ptr) + (len - 1);
    if (!contains(last)) {
        return Fault{last, access, FaultReason::kOutsideSpace, 0};
    }

    const std::size_t first_page = pageIndexOf(ptr);
    const std::size_t last_page = pageIndexOf(last);
    const uint8_t need = access == Access::kRead ? kPermRead
        : access == Access::kWrite ? kPermWrite : kPermExec;

    for (std::size_t i = first_page; i <= last_page; ++i) {
        const PageEntry &pe = entries_[i];
        const void *page_addr =
            memory_.get() + i * kPageSize;
        const void *fault_addr = i == first_page ? ptr : page_addr;
        if (!pe.present) {
            return Fault{fault_addr, access, FaultReason::kNotPresent,
                         pe.pkey};
        }
        if ((pe.perms & need) == 0) {
            return Fault{fault_addr, access, FaultReason::kPagePerm,
                         pe.pkey};
        }
        if (auto reason = mpk.check(pkru, pe.pkey, access)) {
            return Fault{fault_addr, access, *reason, pe.pkey};
        }
    }
    return std::nullopt;
}

} // namespace cubicleos::hw
