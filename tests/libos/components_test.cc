/**
 * @file
 * Tests for the small library-OS components: PLAT, TIME, ALLOC wiring,
 * shared LIBC and RANDOM.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string_view>

#include "libos/alloc.h"
#include "libos/app.h"
#include "libos/libc.h"
#include "libos/plat.h"
#include "libos/stack.h"

namespace cubicleos::libos {
namespace {

class ComponentsTest : public ::testing::Test {
  protected:
    void boot()
    {
        core::SystemConfig cfg;
        cfg.numPages = 4096;
        sys = std::make_unique<core::System>(cfg);
        addLibosComponents(*sys);
        app = static_cast<AppComponent *>(
            &sys->addComponent(std::make_unique<AppComponent>()));
        finishBoot(*sys);
    }

    /** Boots the library OS with two apps, "a" and "b". */
    void bootTwoApps()
    {
        core::SystemConfig cfg;
        cfg.numPages = 4096;
        sys = std::make_unique<core::System>(cfg);
        addLibosComponents(*sys);
        a = static_cast<AppComponent *>(
            &sys->addComponent(std::make_unique<AppComponent>("a")));
        b = static_cast<AppComponent *>(
            &sys->addComponent(std::make_unique<AppComponent>("b")));
        finishBoot(*sys);
    }

    std::unique_ptr<core::System> sys;
    AppComponent *app = nullptr;
    AppComponent *a = nullptr;
    AppComponent *b = nullptr;
};

TEST_F(ComponentsTest, ConsoleWriteLandsInPlatLog)
{
    boot();
    auto write = sys->resolve<void(const char *, std::size_t)>(
        "plat", "plat_console_write");
    const core::Cid plat_cid = sys->cidOf("plat");
    app->run([&] {
        char *msg = static_cast<char *>(sys->heapAlloc(64));
        std::strcpy(msg, "hello console");
        core::Wid wid = sys->windowInit();
        sys->windowAdd(wid, msg, 64);
        sys->windowOpen(wid, plat_cid);
        write(msg, 13);
        sys->windowDestroy(wid);
    });
    auto &plat = static_cast<PlatComponent &>(
        sys->componentAt(sys->cidOf("plat")));
    EXPECT_EQ(plat.consoleLog(), "hello console");
}

TEST_F(ComponentsTest, TimeIsMonotonic)
{
    boot();
    auto mono = sys->resolve<uint64_t()>("time", "time_monotonic_ns");
    app->run([&] {
        uint64_t prev = mono();
        for (int i = 0; i < 10; ++i) {
            sys->clock().charge(1000);
            const uint64_t cur = mono();
            EXPECT_GE(cur, prev);
            prev = cur;
        }
    });
}

TEST_F(ComponentsTest, BusyWaitAdvancesVirtualClock)
{
    boot();
    auto wait =
        sys->resolve<void(uint64_t)>("time", "time_busy_wait_ns");
    const uint64_t before = sys->clock().read();
    app->run([&] { wait(1000); });
    // 1 us at 2.2 GHz = 2200 cycles (plus call overhead).
    EXPECT_GE(sys->clock().read() - before, 2200u);
}

TEST_F(ComponentsTest, HeapChunksComeFromAllocAfterBoot)
{
    boot();
    const auto app_cid = sys->cidOf("app");
    const auto alloc_cid = sys->cidOf("alloc");
    sys->stats().reset();
    app->run([&] {
        // Exceed the initial chunk so the heap grows via ALLOC.
        for (int i = 0; i < 40; ++i)
            sys->heapAlloc(8192);
    });
    EXPECT_GE(sys->stats().callsOnEdge(app_cid, alloc_cid), 1u);
    auto &alloc = static_cast<AllocComponent &>(
        sys->componentAt(alloc_cid));
    EXPECT_GT(alloc.pagesServed(), 0u);
}

TEST_F(ComponentsTest, FreePagesFreesNothingButWholeHeapRuns)
{
    // ALLOC's free_pages is exported to every cubicle: a run past the
    // end of the space, a second free and another cubicle's code page
    // must each leave the pool, the page's owner and its page-table
    // entry as they were.
    boot();
    auto allocPages =
        sys->resolve<void *(std::size_t)>("alloc", "alloc_pages");
    auto freePages =
        sys->resolve<void(void *, std::size_t)>("alloc", "free_pages");
    core::Monitor &mon = sys->monitor();
    const core::Cid vfsCid = sys->cidOf("vfscore");

    struct Page {
        std::size_t free;
        Cid owner;
        bool present;
        uint8_t perms;
        uint8_t pkey;
    };
    const auto look = [&](std::size_t page) {
        const hw::PageEntry &e = mon.space().entryAt(page);
        return Page{mon.freePageCount(), mon.pageMeta().at(page).owner,
                    e.present, e.perms, e.pkey};
    };
    const auto same = [](const Page &a, const Page &b) {
        return a.free == b.free && a.owner == b.owner &&
               a.present == b.present && a.perms == b.perms &&
               a.pkey == b.pkey;
    };

    app->run([&] {
        const mem::PageRange code = mon.cubicle(vfsCid).codeRange;
        Page before = look(code.first);
        freePages(code.ptr, 1);
        EXPECT_TRUE(same(look(code.first), before)) << "code page";
        EXPECT_EQ(before.owner, vfsCid);

        void *once = allocPages(1);
        ASSERT_NE(once, nullptr);
        const std::size_t oncePage = mon.space().pageIndexOf(once);
        before = look(oncePage);
        freePages(once, 1);
        EXPECT_EQ(mon.freePageCount(), before.free + 1);
        before = look(oncePage);
        freePages(once, 1);
        EXPECT_TRUE(same(look(oncePage), before)) << "second free";

        void *heap = allocPages(1);
        ASSERT_NE(heap, nullptr);
        const std::size_t page = mon.space().pageIndexOf(heap);
        before = look(page);
        freePages(heap, mon.space().numPages());
        EXPECT_TRUE(same(look(page), before)) << "run past the end";
    });
}

TEST_F(ComponentsTest, AllocActsForItsCaller)
{
    // App b frees a page of app a's live heap through ALLOC, then asks
    // ALLOC for a page. Were the free honoured, b's page would be a's,
    // with a's bytes in it.
    bootTwoApps();
    auto allocPages =
        sys->resolve<void *(std::size_t)>("alloc", "alloc_pages");
    auto freePages =
        sys->resolve<void(void *, std::size_t)>("alloc", "free_pages");
    core::Monitor &mon = sys->monitor();
    const core::Cid aCid = sys->cidOf("a");
    const core::Cid bCid = sys->cidOf("b");
    static constexpr char kSecret[] = "a's heap secret";

    std::byte *aPage = nullptr;
    std::size_t offset = 0;
    a->run([&] {
        // Grow a's heap past its first chunk, so the block sits on a
        // page ALLOC served to a.
        char *block = nullptr;
        for (int i = 0; i < 40; ++i)
            block = static_cast<char *>(sys->heapAlloc(8192));
        std::memcpy(block, kSecret, sizeof(kSecret));
        aPage = mon.space().base() +
                mon.space().pageIndexOf(block) * hw::kPageSize;
        offset = static_cast<std::size_t>(
            reinterpret_cast<std::byte *>(block) - aPage);
    });
    ASSERT_LE(offset + sizeof(kSecret), hw::kPageSize);
    const std::size_t page = mon.space().pageIndexOf(aPage);
    ASSERT_EQ(mon.pageMeta().at(page).owner, aCid);
    const std::size_t freeBefore = mon.freePageCount();

    std::byte *bPage = nullptr;
    b->run([&] {
        freePages(aPage, 1);
        bPage = static_cast<std::byte *>(allocPages(1));
    });
    ASSERT_NE(bPage, nullptr);
    EXPECT_EQ(mon.pageMeta().at(page).owner, aCid);
    EXPECT_EQ(mon.freePageCount(), freeBefore - 1);
    EXPECT_NE(bPage, aPage);
    EXPECT_EQ(mon.pageMeta().at(mon.space().pageIndexOf(bPage)).owner,
              bCid);
    EXPECT_NE(std::memcmp(bPage + offset, kSecret, sizeof(kSecret)), 0);
    EXPECT_EQ(std::memcmp(aPage + offset, kSecret, sizeof(kSecret)), 0);

    // b frees its own page.
    b->run([&] { freePages(bPage, 1); });
    EXPECT_EQ(mon.freePageCount(), freeBefore);
}

/** Copies of @p text at each multiple of its size in [p, p + n). */
std::size_t
copiesOf(const std::byte *p, std::size_t n, std::string_view text)
{
    std::size_t copies = 0;
    for (std::size_t off = 0; off + text.size() <= n; off += text.size())
        copies += std::memcmp(p + off, text.data(), text.size()) == 0;
    return copies;
}

TEST_F(ComponentsTest, FreedPageReachesTheNextOwnerZeroed)
{
    // App a fills an ALLOC page with its string and frees it; first
    // fit hands that page to b's next alloc_pages.
    bootTwoApps();
    auto allocPages =
        sys->resolve<void *(std::size_t)>("alloc", "alloc_pages");
    auto freePages =
        sys->resolve<void(void *, std::size_t)>("alloc", "free_pages");
    constexpr std::string_view kSecret = "secret";

    std::byte *aPage = nullptr;
    const uint64_t scrubbed = sys->stats().scrubbedPages();
    a->run([&] {
        aPage = static_cast<std::byte *>(allocPages(1));
        ASSERT_NE(aPage, nullptr);
        for (std::size_t off = 0; off + kSecret.size() <= hw::kPageSize;
             off += kSecret.size())
            std::memcpy(aPage + off, kSecret.data(), kSecret.size());
        ASSERT_EQ(copiesOf(aPage, hw::kPageSize, kSecret),
                  hw::kPageSize / kSecret.size());
        freePages(aPage, 1);
    });
    EXPECT_EQ(sys->stats().scrubbedPages() - scrubbed, 1u);

    std::byte *bPage = nullptr;
    b->run([&] { bPage = static_cast<std::byte *>(allocPages(1)); });
    ASSERT_EQ(bPage, aPage) << "first fit no longer reuses a's page";
    EXPECT_EQ(copiesOf(bPage, hw::kPageSize, kSecret), 0u);
    EXPECT_TRUE(std::all_of(bPage, bPage + hw::kPageSize,
                            [](std::byte x) { return x == std::byte{0}; }));
}

TEST_F(ComponentsTest, DestroyedCubiclesHeapReachesTheNextOwnerZeroed)
{
    // App a writes its string into 64 heap blocks and dies; destroy
    // returns a's heap chunks to the pool, which serves b's heap next.
    bootTwoApps();
    constexpr std::string_view kSecret = "a's heap secret";
    a->run([&] {
        for (int i = 0; i < 64; ++i) {
            std::memcpy(sys->heapAlloc(4000), kSecret.data(),
                        kSecret.size());
        }
    });
    const uint64_t scrubbed = sys->stats().scrubbedPages();
    const std::size_t reclaimed = sys->destroyComponent("a");
    EXPECT_EQ(sys->stats().scrubbedPages() - scrubbed, reclaimed);

    std::size_t leaked = 0;
    b->run([&] {
        for (int i = 0; i < 128; ++i) {
            const auto *block =
                static_cast<const std::byte *>(sys->heapAlloc(4000));
            leaked += copiesOf(block, kSecret.size(), kSecret);
        }
    });
    EXPECT_EQ(leaked, 0u);
}

TEST_F(ComponentsTest, RandomIsDeterministicPerSeed)
{
    boot();
    auto rand = sys->resolve<uint64_t()>("random", "rand_u64");
    auto seed = sys->resolve<void(uint64_t)>("random", "rand_seed");
    std::vector<uint64_t> first, second;
    app->run([&] {
        seed(42);
        for (int i = 0; i < 8; ++i)
            first.push_back(rand());
        seed(42);
        for (int i = 0; i < 8; ++i)
            second.push_back(rand());
    });
    EXPECT_EQ(first, second);
}

TEST_F(ComponentsTest, LibcStrcmpAndStrnlen)
{
    boot();
    Libc libc;
    app->run([&] {
        libc = Libc(*sys);
        char *a = static_cast<char *>(sys->heapAlloc(16));
        char *b = static_cast<char *>(sys->heapAlloc(16));
        std::strcpy(a, "abc");
        std::strcpy(b, "abd");
        EXPECT_LT(libc.strcmp(a, b), 0);
        EXPECT_EQ(libc.strcmp(a, a), 0);
        EXPECT_EQ(libc.strnlen(a, 16), 3u);
        EXPECT_EQ(libc.strnlen(a, 2), 2u);
    });
}

TEST_F(ComponentsTest, SqliteDeploymentHasSevenIsolatedCubicles)
{
    boot();
    // PLAT, ALLOC, TIME, VFSCORE, RAMFS, APP, BOOT = 7 isolated
    // (paper Fig. 8); LIBC and RANDOM are shared.
    int isolated = 0, shared = 0;
    for (core::Cid cid = 0;
         cid < static_cast<core::Cid>(sys->cubicleCount()); ++cid) {
        if (sys->monitor().cubicle(cid).isolated())
            ++isolated;
        else
            ++shared;
    }
    EXPECT_EQ(isolated, 7);
    EXPECT_EQ(shared, 4);
}

} // namespace
} // namespace cubicleos::libos
