/**
 * @file
 * Machine-checked locking: annotation-capable mutex wrappers plus a
 * debug lock-hierarchy checker (lockdep).
 *
 * The monitor's lock hierarchy (monitor.h file header) used to live
 * only in a comment; nothing stopped a new call path from acquiring
 * pageMutex_ before windowMutex_ and deadlocking only under load on a
 * multi-core host. This header makes the hierarchy machine-checked at
 * two layers:
 *
 *  1. **Static** — every lock in src/core and src/libos is one of the
 *     wrappers below, annotated with clang's thread-safety capability
 *     attributes. Building with the `tidy-tsa` preset (clang,
 *     `-Wthread-safety -Werror=thread-safety`) turns "field X is only
 *     touched under lock L" (GUARDED_BY) and "helper F runs under L"
 *     (REQUIRES) into compile errors when violated. Under other
 *     compilers the annotation macros expand to nothing. The
 *     locking_wrapper_lint ctest rejects any raw std::mutex /
 *     std::shared_mutex / lock_guard declaration outside this file, so
 *     new locks cannot bypass the annotations.
 *
 *  2. **Dynamic (lockdep)** — each wrapper carries a static rank from
 *     the hierarchy below plus an optional same-rank order key (the
 *     cubicle id for per-cubicle locks). When built with
 *     CUBICLE_LOCKDEP (default ON; a debug backstop), every
 *     acquisition is checked against the calling thread's held-lock
 *     stack: acquiring a lower rank than one already held, acquiring
 *     equal rank out of key order, or re-entering a held lock (the
 *     shared-vs-exclusive windowMutex_ re-entry case annotations
 *     cannot express) aborts the process with the held lock's
 *     acquisition site and the bad acquisition's backtrace. See
 *     locking.cc.
 *
 * # Lock ranks
 *
 * Ranks mirror the monitor's documented acquisition order; gaps leave
 * room for future levels (per-core sharding):
 *
 *   kLifecycle   (5)   Monitor::lifecycleMutex_     (destroy/restart)
 *   kLoader      (10)  Monitor::loaderMutex_
 *   kVerifyCache (20)  verifier::VerifyCache::mu_   (under the loader)
 *   kWindow      (30)  Monitor::windowMutex_
 *   kCubicle     (40)  Cubicle::stackMu / heapMu    (key = cubicle id)
 *   kPage        (50)  Monitor::pageMutex_          (leaf)
 *
 * A thread may skip levels downwards (loader → page is fine) but never
 * acquire upwards. Same-rank nesting is only legal in strictly
 * increasing key order, which makes any same-rank cycle impossible by
 * total order (two threads chaining per-cubicle locks in opposite cid
 * order would deadlock; lockdep rejects the first out-of-order link).
 *
 * # Adding a new lock (checklist, see DESIGN.md §11)
 *
 *   1. pick its rank: strictly between the highest lock held when it
 *      is acquired and the lowest lock acquired while it is held;
 *   2. declare it as locking wrapper with that rank and a unique name;
 *   3. GUARDED_BY every field it protects, REQUIRES every helper that
 *      assumes it, ACQUIRED_AFTER its predecessor;
 *   4. take it only through the scoped guards below;
 *   5. build the tidy-tsa preset and run the concurrency ctest label.
 */

#ifndef CUBICLEOS_CORE_LOCKING_H_
#define CUBICLEOS_CORE_LOCKING_H_

#include <cstdint>
#include <mutex>
#include <shared_mutex>

// ----------------------------------------------------------------------
// Clang thread-safety annotation macros (no-ops elsewhere).
// Standard spellings from the clang Thread Safety Analysis docs.
// ----------------------------------------------------------------------

#if defined(__clang__)
#define CUBICLE_TSA_ATTR(x) __attribute__((x))
#else
#define CUBICLE_TSA_ATTR(x)
#endif

#define CAPABILITY(x) CUBICLE_TSA_ATTR(capability(x))
#define SCOPED_CAPABILITY CUBICLE_TSA_ATTR(scoped_lockable)
#define GUARDED_BY(x) CUBICLE_TSA_ATTR(guarded_by(x))
#define PT_GUARDED_BY(x) CUBICLE_TSA_ATTR(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) CUBICLE_TSA_ATTR(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) CUBICLE_TSA_ATTR(acquired_after(__VA_ARGS__))
#define REQUIRES(...) CUBICLE_TSA_ATTR(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
    CUBICLE_TSA_ATTR(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) CUBICLE_TSA_ATTR(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
    CUBICLE_TSA_ATTR(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) CUBICLE_TSA_ATTR(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
    CUBICLE_TSA_ATTR(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
    CUBICLE_TSA_ATTR(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) CUBICLE_TSA_ATTR(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) CUBICLE_TSA_ATTR(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) CUBICLE_TSA_ATTR(assert_capability(x))
#define RETURN_CAPABILITY(x) CUBICLE_TSA_ATTR(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS CUBICLE_TSA_ATTR(no_thread_safety_analysis)

namespace cubicleos::core {

/** Static lock ranks, in the only legal acquisition order. */
enum class LockRank : uint16_t {
    kLifecycle = 5,    ///< Monitor::lifecycleMutex_ (destroy/restart)
    kLoader = 10,      ///< Monitor::loaderMutex_
    kVerifyCache = 20, ///< verifier::VerifyCache::mu_
    kWindow = 30,      ///< Monitor::windowMutex_
    kCubicle = 40,     ///< Cubicle::stackMu / heapMu (key = cid)
    kPage = 50,        ///< Monitor::pageMutex_ (leaf)
};

/** Human-readable rank name for lockdep reports. */
const char *lockRankName(LockRank rank);

namespace lockdep {

/** Compile-time switch: true when the dynamic checker is built in. */
#if CUBICLE_LOCKDEP
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/** Static identity of one lock instance, for reports. */
struct LockTag {
    const char *name = "lock";
    LockRank rank = LockRank::kPage;
    /**
     * Same-rank order key. Locks of equal rank may only be nested in
     * strictly increasing key order (per-cubicle locks use the cubicle
     * id), which rules out same-rank cycles by total order.
     */
    uint32_t key = 0;
};

/**
 * Hierarchy check + held-stack push for one acquisition. Called by the
 * wrappers *before* blocking on the underlying mutex, so a violation
 * aborts with a report instead of deadlocking. Aborts the process on
 * rank violation, same-rank key-order violation, or re-entry of a held
 * lock (including shared-then-exclusive re-entry), printing the
 * recorded acquisition site (one return address) of the conflicting
 * held lock and the current backtrace.
 */
void onAcquire(const LockTag &tag, const void *lock, bool shared);

/** Held-stack pop (tolerates out-of-order release). */
void onRelease(const void *lock);

/** Locks the calling thread currently holds (tests). */
std::size_t heldCount();

/** True when the calling thread holds @p lock (in either mode). */
bool isHeld(const void *lock);

/**
 * Aborts with a report unless the calling thread holds @p lock. The
 * runtime counterpart of REQUIRES() for the two guard relations the
 * static analysis cannot express (DESIGN.md §11): state published
 * lock-free behind a serialising lock (Monitor::cubicles_), and data
 * guarded by a lock living in a different object (WindowTable).
 * Call sites gate on lockdep::kEnabled so release builds pay nothing.
 */
void assertHeld(const void *lock, const char *what);

} // namespace lockdep

// ----------------------------------------------------------------------
// Annotated mutex wrappers
// ----------------------------------------------------------------------

/**
 * Exclusive mutex with a static hierarchy rank.
 *
 * A thin std::mutex wrapper that (a) carries clang thread-safety
 * capability annotations and (b) feeds the debug lockdep checker.
 * Acquire through MutexLock, not by calling lock() directly, so the
 * static analysis sees a scoped capability (raw lock()/unlock() exist
 * for the checker's own tests).
 */
class CAPABILITY("mutex") Mutex {
  public:
    explicit Mutex(LockRank rank, const char *name, uint32_t key = 0)
        : tag_{name, rank, key}
    {}

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() ACQUIRE()
    {
        if constexpr (lockdep::kEnabled)
            lockdep::onAcquire(tag_, this, /*shared=*/false);
        mu_.lock();
    }

    void unlock() RELEASE()
    {
        mu_.unlock();
        if constexpr (lockdep::kEnabled)
            lockdep::onRelease(this);
    }

    /**
     * Rebinds the same-rank order key. Only legal before the lock is
     * published to other threads (the loader sets per-cubicle locks'
     * keys to the cubicle id once it is assigned).
     */
    void setOrderKey(uint32_t key) { tag_.key = key; }

    const lockdep::LockTag &tag() const { return tag_; }

  private:
    std::mutex mu_;
    lockdep::LockTag tag_;
};

/**
 * Reader/writer mutex with a static hierarchy rank.
 *
 * Wraps std::shared_mutex; faults take it shared, mutations exclusive
 * (see Monitor::windowMutex_). Re-entry in *either* mode while already
 * held by the same thread is a lockdep violation: upgrading shared →
 * exclusive self-deadlocks, and shared → shared can deadlock behind a
 * blocked writer.
 */
class CAPABILITY("shared_mutex") SharedMutex {
  public:
    explicit SharedMutex(LockRank rank, const char *name, uint32_t key = 0)
        : tag_{name, rank, key}
    {}

    SharedMutex(const SharedMutex &) = delete;
    SharedMutex &operator=(const SharedMutex &) = delete;

    void lock() ACQUIRE()
    {
        if constexpr (lockdep::kEnabled)
            lockdep::onAcquire(tag_, this, /*shared=*/false);
        mu_.lock();
    }

    void unlock() RELEASE()
    {
        mu_.unlock();
        if constexpr (lockdep::kEnabled)
            lockdep::onRelease(this);
    }

    void lockShared() ACQUIRE_SHARED()
    {
        if constexpr (lockdep::kEnabled)
            lockdep::onAcquire(tag_, this, /*shared=*/true);
        mu_.lock_shared();
    }

    void unlockShared() RELEASE_SHARED()
    {
        mu_.unlock_shared();
        if constexpr (lockdep::kEnabled)
            lockdep::onRelease(this);
    }

    const lockdep::LockTag &tag() const { return tag_; }

  private:
    std::shared_mutex mu_;
    lockdep::LockTag tag_;
};

// ----------------------------------------------------------------------
// Scoped guards (the only way core/libos code takes a lock)
// ----------------------------------------------------------------------

/** RAII exclusive hold of a Mutex. */
class SCOPED_CAPABILITY MutexLock {
  public:
    explicit MutexLock(Mutex &mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
    ~MutexLock() RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

/** RAII exclusive (writer) hold of a SharedMutex. */
class SCOPED_CAPABILITY WriterLock {
  public:
    explicit WriterLock(SharedMutex &mu) ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~WriterLock() RELEASE() { mu_.unlock(); }

    WriterLock(const WriterLock &) = delete;
    WriterLock &operator=(const WriterLock &) = delete;

  private:
    SharedMutex &mu_;
};

/** RAII shared (reader) hold of a SharedMutex. */
class SCOPED_CAPABILITY ReaderLock {
  public:
    explicit ReaderLock(SharedMutex &mu) ACQUIRE_SHARED(mu) : mu_(mu)
    {
        mu_.lockShared();
    }
    ~ReaderLock() RELEASE() { mu_.unlockShared(); }

    ReaderLock(const ReaderLock &) = delete;
    ReaderLock &operator=(const ReaderLock &) = delete;

  private:
    SharedMutex &mu_;
};

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_LOCKING_H_
