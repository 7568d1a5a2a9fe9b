/**
 * @file
 * Lock-inversion regression suite for the debug lockdep checker
 * (core/locking.cc).
 *
 * The static thread-safety annotations cannot express acquisition
 * *order* in a form gcc checks, so these death tests are the guard
 * that the documented hierarchy stays enforced at runtime: a seeded
 * pageMutex_→windowMutex_ inversion inside the monitor (through the
 * MonitorTestPeer friend below), per-cubicle locks chained against
 * cid order, and the fault path's shared-vs-exclusive windowMutex_
 * re-entry. Positive cases pin down that the legal orders stay silent.
 *
 * Death tests fork (threadsafe style), so the abort happens in a
 * throwaway child and the suite runs fine under the sanitizer presets.
 */

#include <gtest/gtest.h>

#include "core/locking.h"
#include "core/system.h"
#include "tests/core/toy_components.h"

namespace cubicleos::core {

/**
 * Seeds lock-discipline violations on Monitor internals, which only a
 * friend can reach; the debug checker must abort on each.
 */
struct MonitorTestPeer {
    /** pageMutex_ (rank page, the leaf) then windowMutex_. */
    static void acquirePageThenWindow(const Monitor &monitor)
    {
        MutexLock pages(monitor.pageMutex_);
        ReaderLock windows(monitor.windowMutex_);
    }

    /**
     * A window-table lookup without holding windowMutex_, the table's
     * bound guard: the cross-object violation WindowTable::bindGuard
     * exists to catch.
     */
    static void windowLookupUnlocked(const Monitor &monitor, Cid cid)
    {
        monitor.cubicles_[cid]->windows.findWindowFor(
            mem::PageType::kGlobal, nullptr);
    }
};

namespace {

using testing::addToy;

class LockdepTest : public ::testing::Test {
  protected:
    void SetUp() override
    {
        ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
        if (!lockdep::kEnabled)
            GTEST_SKIP() << "built without CUBICLE_LOCKDEP";
    }
};

TEST_F(LockdepTest, MonitorInversionHookAborts)
{
    SystemConfig cfg;
    cfg.numPages = 256;
    System sys(cfg);
    addToy(sys, "foo");
    sys.boot();
    // The seeded inversion: pageMutex_ (leaf) before windowMutex_.
    EXPECT_DEATH(MonitorTestPeer::acquirePageThenWindow(sys.monitor()),
                 "rank inversion");
}

TEST_F(LockdepTest, UnguardedWindowTableLookupAborts)
{
    SystemConfig cfg;
    cfg.numPages = 256;
    System sys(cfg);
    addToy(sys, "foo");
    sys.boot();
    // The loader bound the cubicle's WindowTable to windowMutex_; a
    // lookup without holding it is the cross-object guard violation
    // the static analysis cannot see (DESIGN.md §11).
    EXPECT_DEATH(MonitorTestPeer::windowLookupUnlocked(sys.monitor(),
                                                       sys.cidOf("foo")),
                 "WindowTable accessed without its guard");
}

TEST_F(LockdepTest, AssertHeldReportsBothModes)
{
    SharedMutex mu(LockRank::kWindow, "test.window");

    EXPECT_FALSE(lockdep::isHeld(&mu));
    mu.lockShared();
    EXPECT_TRUE(lockdep::isHeld(&mu)); // shared hold satisfies the guard
    lockdep::assertHeld(&mu, "test state"); // must not abort
    mu.unlockShared();

    mu.lock();
    EXPECT_TRUE(lockdep::isHeld(&mu));
    lockdep::assertHeld(&mu, "test state");
    mu.unlock();
    EXPECT_FALSE(lockdep::isHeld(&mu));

    EXPECT_DEATH(lockdep::assertHeld(&mu, "test state"),
                 "accessed without its guard");
}

TEST_F(LockdepTest, PerCubicleLocksOutOfCidOrderAbort)
{
    SystemConfig cfg;
    cfg.numPages = 256;
    System sys(cfg);
    addToy(sys, "foo");
    addToy(sys, "bar");
    sys.boot();
    const Cid lo = sys.cidOf("foo");
    const Cid hi = sys.cidOf("bar");
    ASSERT_LT(lo, hi);
    Cubicle &first = sys.monitor().cubicle(lo);
    Cubicle &second = sys.monitor().cubicle(hi);

    // Increasing cid order is the documented discipline: silent.
    {
        MutexLock a(first.stackMu);
        MutexLock b(second.stackMu);
        EXPECT_EQ(lockdep::heldCount(), 2u);
    }
    EXPECT_EQ(lockdep::heldCount(), 0u);

    // Decreasing cid order is the deadlock-capable chain: fatal.
    EXPECT_DEATH(
        {
            MutexLock a(second.stackMu);
            MutexLock b(first.stackMu);
        },
        "out of key order");
}

TEST_F(LockdepTest, SharedMutexReentryAborts)
{
    SharedMutex mu(LockRank::kWindow, "test.window");

    // Shared-then-exclusive re-entry: the upgrade self-deadlocks on a
    // real shared_mutex, so lockdep must refuse before blocking.
    EXPECT_DEATH(
        {
            mu.lockShared();
            mu.lock();
        },
        "re-entrant");

    // Shared-then-shared re-entry deadlocks behind a queued writer:
    // equally fatal.
    EXPECT_DEATH(
        {
            mu.lockShared();
            mu.lockShared();
        },
        "re-entrant");

    // Sequential (non-nested) holds in both modes are legal.
    mu.lockShared();
    mu.unlockShared();
    mu.lock();
    mu.unlock();
    EXPECT_EQ(lockdep::heldCount(), 0u);
}

TEST_F(LockdepTest, RankInversionOnRawWrappersAborts)
{
    Mutex low(LockRank::kLoader, "test.loader");
    Mutex high(LockRank::kPage, "test.page");

    // Hierarchy order (loader → page), including a skipped level, is
    // silent; the reverse aborts with the rank names in the report.
    {
        MutexLock a(low);
        MutexLock b(high);
    }
    EXPECT_DEATH(
        {
            MutexLock a(high);
            MutexLock b(low);
        },
        "rank inversion");
}

TEST_F(LockdepTest, LegalFullChainStaysSilent)
{
    // The deepest legal chain in the hierarchy: loader → verify-cache
    // → window → cubicle → page.
    Mutex loader(LockRank::kLoader, "t.loader");
    SharedMutex cacheMu(LockRank::kVerifyCache, "t.cache");
    SharedMutex window(LockRank::kWindow, "t.window");
    Mutex cub(LockRank::kCubicle, "t.cubicle", /*key=*/3);
    Mutex page(LockRank::kPage, "t.page");

    MutexLock a(loader);
    ReaderLock b(cacheMu);
    WriterLock c(window);
    MutexLock d(cub);
    MutexLock e(page);
    EXPECT_EQ(lockdep::heldCount(), 5u);
}

TEST_F(LockdepTest, OutOfOrderReleaseIsTolerated)
{
    // Hand-over-hand style release (not LIFO) must not confuse the
    // held stack.
    Mutex a(LockRank::kLoader, "t.a");
    Mutex b(LockRank::kWindow, "t.b");
    a.lock();
    b.lock();
    a.unlock();
    EXPECT_EQ(lockdep::heldCount(), 1u);
    b.unlock();
    EXPECT_EQ(lockdep::heldCount(), 0u);
}

} // namespace
} // namespace cubicleos::core
