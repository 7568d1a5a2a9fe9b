#include "libos/alloc.h"

namespace cubicleos::libos {

void
AllocComponent::registerExports(core::Exporter &exp)
{
    // Allocates @p n pages owned by (and tagged for) the calling
    // cubicle. ALLOC manages the pool; ownership assignment is
    // performed by the trusted monitor, which is the only entity
    // allowed to tag pages.
    exp.fn<void *(std::size_t)>(
        "alloc_pages", [this](std::size_t n) -> void * {
            const core::Cid owner = sys()->caller();
            if (owner >= sys()->cubicleCount())
                return nullptr;
            auto range = sys()->monitor().allocPagesFor(
                owner, n, mem::PageType::kHeap);
            if (!range.valid())
                return nullptr;
            pagesServed_ += n;
            return range.ptr;
        });

    // Frees a heap run of the calling cubicle's own; anything else
    // stays as it was.
    exp.fn<void(void *, std::size_t)>(
        "free_pages", [this](void *ptr, std::size_t n) {
            auto &space = sys()->monitor().space();
            if (!space.contains(ptr))
                return;
            mem::PageRange range{space.pageIndexOf(ptr), n,
                                 static_cast<std::byte *>(ptr)};
            sys()->monitor().freePages(range, sys()->caller());
        });
}

void
wireHeapsThroughAlloc(core::System &sys)
{
    const core::Cid alloc_cid = sys.cidOf("alloc");
    auto alloc_pages =
        sys.resolve<void *(std::size_t)>("alloc", "alloc_pages");
    auto free_pages =
        sys.resolve<void(void *, std::size_t)>("alloc", "free_pages");

    for (core::Cid cid = 0;
         cid < static_cast<core::Cid>(sys.cubicleCount()); ++cid) {
        auto &cub = sys.monitor().cubicle(cid);
        if (!cub.isolated() || cid == alloc_cid)
            continue;
        // A heap grows and shrinks inside its own cubicle, so ALLOC's
        // caller is the heap's owner.
        sys.setHeapSource(
            cid,
            [&sys, alloc_pages](std::size_t n) -> mem::PageRange {
                void *p = alloc_pages(n);
                if (!p)
                    return {};
                return mem::PageRange{
                    sys.monitor().space().pageIndexOf(p), n,
                    static_cast<std::byte *>(p)};
            },
            [free_pages](const mem::PageRange &r) {
                free_pages(r.ptr, r.count);
            });
    }
}

} // namespace cubicleos::libos
