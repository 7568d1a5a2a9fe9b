/**
 * @file
 * Multi-threaded trap-and-map tests: concurrent faults through one
 * shared window on overlapping pages, window open/close racing
 * accessor faults, and grant-cache (simulated TLB) invalidation on
 * windowClose. These exercise the monitor's decomposed lock hierarchy
 * (monitor.h) rather than the per-thread-context behaviour covered by
 * concurrency_test.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "core/system.h"
#include "tests/core/toy_components.h"

namespace cubicleos::core {
namespace {

using testing::addToy;

/**
 * Blocks until @p counter has advanced by @p n past its value at the
 * call. The owner threads below hand off to their accessor threads
 * through it, so every round provably overlaps accessor progress
 * instead of depending on the scheduler running the accessors at all.
 */
void
awaitProgress(const std::atomic<int> &counter, int n)
{
    const int target = counter.load() + n;
    while (counter.load() < target)
        std::this_thread::yield();
}

TEST(MtTrapMap, ThreadsFaultThroughOneWindowOnOverlappingPages)
{
    SystemConfig cfg;
    cfg.numPages = 4096;
    System sys(cfg);
    addToy(sys, "owner");
    constexpr int kThreads = 4;
    for (int i = 0; i < kThreads; ++i)
        addToy(sys, "acc" + std::to_string(i));
    sys.boot();
    const Cid owner = sys.cidOf("owner");

    // One 4-page buffer shared through one window with every accessor
    // in the ACL: all threads fault over the same pages, and the tag
    // ping-pongs between them until their grant caches absorb it.
    constexpr std::size_t kBufPages = 4;
    constexpr std::size_t kBufBytes = kBufPages * hw::kPageSize;
    char *buf = nullptr;
    sys.runAs(owner, [&] {
        buf = reinterpret_cast<char *>(
            sys.monitor()
                .allocPagesFor(owner, kBufPages, mem::PageType::kHeap)
                .ptr);
        std::memset(buf, 7, kBufBytes);
        const Wid wid = sys.windowInit();
        sys.windowAdd(wid, buf, kBufBytes);
        for (int i = 0; i < kThreads; ++i)
            sys.windowOpen(wid, sys.cidOf("acc" + std::to_string(i)));
    });

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const Cid me = sys.cidOf("acc" + std::to_string(t));
            sys.runAs(me, [&] {
                for (int i = 0; i < 300; ++i) {
                    try {
                        // Whole-buffer read: every thread's range
                        // covers every page of the window.
                        sys.touch(buf, kBufBytes, hw::Access::kRead);
                        long s = 0;
                        for (std::size_t b = 0; b < kBufBytes;
                             b += 512)
                            s += buf[b];
                        if (s != 7 * static_cast<long>(kBufBytes / 512))
                            ++failures;
                    } catch (const hw::CubicleFault &) {
                        ++failures; // window is open: never a violation
                    }
                    std::this_thread::yield();
                }
            });
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(sys.stats().violations(), 0u);
    // The first accessor fault per page retags. (Grant-cache hits also
    // occur whenever the threads interleave, but that is scheduler-
    // dependent; the deterministic hit test is
    // WindowCloseInvalidatesGrantCache below.)
    EXPECT_GE(sys.stats().retags(), kBufPages);
}

TEST(MtTrapMap, OpenCloseRacingAccessorFaults)
{
    SystemConfig cfg;
    cfg.numPages = 4096;
    System sys(cfg);
    addToy(sys, "owner");
    addToy(sys, "acc");
    sys.boot();
    const Cid owner = sys.cidOf("owner");
    const Cid acc = sys.cidOf("acc");

    char *buf = nullptr;
    Wid wid = kInvalidWindow;
    sys.runAs(owner, [&] {
        buf = reinterpret_cast<char *>(
            sys.monitor()
                .allocPagesFor(owner, 1, mem::PageType::kHeap)
                .ptr);
        wid = sys.windowInit();
        sys.windowAdd(wid, buf, hw::kPageSize);
    });

    constexpr int kRounds = 400;
    std::atomic<bool> done{false};
    std::atomic<int> granted{0};
    std::atomic<int> denied{0};
    std::atomic<int> attempts{0};

    std::thread owner_thread([&] {
        sys.runAs(owner, [&] {
            for (int i = 0; i < kRounds; ++i) {
                sys.windowOpen(wid, acc);
                awaitProgress(attempts, 1);
                sys.windowClose(wid, acc);
                // Reclaim the page so the next accessor attempt
                // re-faults instead of riding the lazily kept tag.
                sys.touch(buf, 1, hw::Access::kWrite);
            }
            done = true;
        });
    });
    std::thread acc_thread([&] {
        sys.runAs(acc, [&] {
            while (!done) {
                try {
                    sys.touch(buf, 1, hw::Access::kRead);
                    ++granted;
                } catch (const hw::CubicleFault &) {
                    ++denied;
                }
                ++attempts;
            }
        });
    });
    owner_thread.join();
    acc_thread.join();

    // Every attempt resolved to exactly one of the two outcomes — no
    // deadlock, no torn state — and the system still works afterwards.
    EXPECT_GE(granted + denied, kRounds);
    EXPECT_EQ(granted + denied, attempts.load());
    sys.runAs(owner, [&] {
        sys.windowOpen(wid, acc);
    });
    sys.runAs(acc, [&] {
        EXPECT_NO_THROW(sys.touch(buf, hw::kPageSize,
                                  hw::Access::kRead));
    });
    sys.runAs(owner, [&] { sys.windowDestroy(wid); });
}

TEST(MtTrapMap, WindowCloseInvalidatesGrantCache)
{
    SystemConfig cfg;
    cfg.numPages = 4096;
    System sys(cfg);
    addToy(sys, "owner");
    addToy(sys, "acc");
    sys.boot();
    const Cid owner = sys.cidOf("owner");
    const Cid acc = sys.cidOf("acc");

    char *buf = nullptr;
    Wid wid = kInvalidWindow;
    sys.runAs(owner, [&] {
        buf = reinterpret_cast<char *>(
            sys.monitor()
                .allocPagesFor(owner, 1, mem::PageType::kHeap)
                .ptr);
        std::memset(buf, 3, 64);
        wid = sys.windowInit();
        sys.windowAdd(wid, buf, hw::kPageSize);
        sys.windowOpen(wid, acc);
    });

    // Accessor faults in: full trap-and-map, grant cached.
    sys.runAs(acc, [&] {
        sys.touch(buf, 64, hw::Access::kRead);
    });
    // Owner reclaims the tag (owner self-retag fast path).
    sys.runAs(owner, [&] {
        sys.touch(buf, 64, hw::Access::kWrite);
    });

    // Accessor again: the PKU fault is absorbed by the cached grant —
    // no retag, one cache hit.
    const uint64_t retags_before = sys.stats().retags();
    sys.runAs(acc, [&] {
        sys.touch(buf, 64, hw::Access::kRead);
    });
    EXPECT_EQ(sys.stats().retags(), retags_before);
    EXPECT_GE(sys.stats().grantCacheHits(), 1u);

    // Close bumps the revocation epoch: the cached grant must never be
    // honoured again. The owner reclaims the tag, then the accessor's
    // access has to re-fault — and the ACL walk rejects it.
    sys.runAs(owner, [&] {
        sys.windowClose(wid, acc);
        sys.touch(buf, 64, hw::Access::kWrite);
    });
    sys.runAs(acc, [&] {
        EXPECT_THROW(sys.touch(buf, 64, hw::Access::kRead),
                     hw::CubicleFault);
    });
    EXPECT_GE(sys.stats().violations(), 1u);
}

TEST(MtTrapMap, RangeRetagsDoNotInvalidateOtherThreadsCachedGrants)
{
    SystemConfig cfg;
    cfg.numPages = 4096;
    System sys(cfg);
    addToy(sys, "owner");
    addToy(sys, "acc0");
    addToy(sys, "acc1");
    sys.boot();
    const Cid owner = sys.cidOf("owner");
    const Cid acc0 = sys.cidOf("acc0");
    const Cid acc1 = sys.cidOf("acc1");

    // An 8-page buffer behind one window, open for both accessors: big
    // enough that every prestage is a multi-page range retag, small
    // enough to stay one setKeyRange run (the 512-page retag chunk).
    constexpr std::size_t kBufPages = 8;
    constexpr std::size_t kBufBytes = kBufPages * hw::kPageSize;
    char *buf = nullptr;
    Wid wid = kInvalidWindow;
    sys.runAs(owner, [&] {
        buf = reinterpret_cast<char *>(
            sys.monitor()
                .allocPagesFor(owner, kBufPages, mem::PageType::kHeap)
                .ptr);
        std::memset(buf, 5, kBufBytes);
        wid = sys.windowInit();
        sys.windowAdd(wid, buf, kBufBytes);
        sys.windowOpen(wid, acc0);
        sys.windowOpen(wid, acc1);
    });

    // Warm both accessors' per-thread grant caches with one full-range
    // fault each (range-granular: one trap covers all eight pages).
    for (Cid acc : {acc0, acc1}) {
        sys.runAs(acc, [&] {
            sys.touch(buf, kBufBytes, hw::Access::kRead);
        });
    }

    // Owner storms range retags over exactly the pages the reader
    // threads hold cached grants for: windowPrestage to alternating
    // peers keeps flipping every page's tag between the two accessor
    // keys. These retags only WIDEN access — they must not bump the
    // revocation epoch, so both readers' caches stay valid and absorb
    // the PKU misses without a single rejected access. After each
    // prestage the owner waits until both readers have run a whole
    // iteration, so each one reads through every flip.
    std::atomic<int> failures{0};
    std::atomic<bool> done{false};
    std::atomic<int> progress[2] = {0, 0};
    std::thread owner_thread([&] {
        sys.runAs(owner, [&] {
            for (int i = 0; i < 400; ++i) {
                sys.windowPrestage(wid, (i & 1) ? acc1 : acc0,
                                   hw::Access::kRead);
                for (const std::atomic<int> &p : progress)
                    awaitProgress(p, 2);
            }
            done = true;
        });
    });
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
        readers.emplace_back([&, r] {
            sys.runAs(r == 0 ? acc0 : acc1, [&] {
                while (!done) {
                    try {
                        sys.touch(buf, kBufBytes, hw::Access::kRead);
                        long s = 0;
                        for (std::size_t b = 0; b < kBufBytes;
                             b += 1024)
                            s += buf[b];
                        if (s !=
                            5 * static_cast<long>(kBufBytes / 1024))
                            ++failures;
                    } catch (const hw::CubicleFault &) {
                        ++failures; // ACL never changed: no violation
                    }
                    ++progress[r];
                    std::this_thread::yield();
                }
            });
        });
    }
    owner_thread.join();
    for (auto &th : readers)
        th.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(sys.stats().violations(), 0u);
    EXPECT_GE(sys.stats().grantCacheHits(), 2u);

    // windowRemove IS a revocation: it bumps the epoch, so the cached
    // grants — still warm in both reader threads — die at once. After
    // the owner reclaims the tags, a reader's next access must go
    // through the full fault path and be rejected.
    sys.runAs(owner, [&] {
        sys.windowRemove(wid, buf);
        sys.touch(buf, kBufBytes, hw::Access::kWrite);
    });
    sys.runAs(acc0, [&] {
        EXPECT_THROW(sys.touch(buf, 64, hw::Access::kRead),
                     hw::CubicleFault);
    });
    EXPECT_GE(sys.stats().violations(), 1u);
    sys.runAs(owner, [&] { sys.windowDestroy(wid); });
}

} // namespace
} // namespace cubicleos::core
