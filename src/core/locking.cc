/**
 * @file
 * Debug lock-hierarchy checker (lockdep) behind the locking.h wrappers.
 *
 * Kernel-style design scaled down to the library OS: every thread keeps
 * a small stack of currently-held locks, and each acquisition is
 * validated against that stack *before* the underlying mutex is
 * touched, so a violation reports and aborts instead of deadlocking.
 * Three rules, checked in order:
 *
 *   1. **Re-entry** — acquiring a lock this thread already holds, in
 *      any mode, is fatal. This is the only way to catch the fault
 *      path's shared-vs-exclusive windowMutex_ re-entry: upgrading a
 *      reader hold to a writer hold self-deadlocks, and even
 *      shared→shared re-entry deadlocks behind a writer queued between
 *      the two acquisitions.
 *   2. **Rank order** — a new lock's rank must be ≥ every held rank.
 *      Ranks are the monitor's documented hierarchy (locking.h); a
 *      lower-ranked acquisition is exactly the inversion TSan on a
 *      1-core host never observes.
 *   3. **Same-rank key order** — equal-rank locks (per-cubicle
 *      stackMu/heapMu, keyed by cubicle id) must be chained in
 *      strictly increasing key order. A strict total order makes
 *      same-rank cycles impossible; two threads chaining opposite cid
 *      orders would deadlock, and the first out-of-order link aborts.
 *
 * Each held entry records the return address of its acquisition, one
 * word, so a violation report shows where the conflicting lock was
 * taken; the full backtrace of the bad acquisition is taken only when
 * a violation is reported, since a backtrace per acquisition (about
 * 1.8 µs) would dominate every lock-heavy path of a lockdep build.
 *
 * Everything here is per-thread state with no allocation, so the
 * checker itself takes no locks and is async-signal tolerant enough
 * for the fault path.
 */

#include "core/locking.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#if defined(__GLIBC__)
#include <execinfo.h>
#define CUBICLE_LOCKDEP_HAVE_BACKTRACE 1
#else
#define CUBICLE_LOCKDEP_HAVE_BACKTRACE 0
#endif

namespace cubicleos::core {

const char *
lockRankName(LockRank rank)
{
    switch (rank) {
    case LockRank::kLifecycle:
        return "lifecycle";
    case LockRank::kLoader:
        return "loader";
    case LockRank::kVerifyCache:
        return "verify-cache";
    case LockRank::kWindow:
        return "window";
    case LockRank::kCubicle:
        return "cubicle";
    case LockRank::kPage:
        return "page";
    }
    return "?";
}

namespace lockdep {
namespace {

constexpr int kMaxHeld = 32;   ///< deepest legal nesting is 4 today
constexpr int kMaxFrames = 16; ///< backtrace depth of a violation report

/** One lock this thread currently holds. */
struct Held {
    const void *lock = nullptr; ///< wrapper address (identity)
    LockTag tag;
    bool shared = false;
    void *site = nullptr; ///< return address of the acquisition
};

/** Per-thread held-lock stack. Trivial layout: plain TLS, no ctor. */
struct ThreadState {
    int depth = 0;
    Held held[kMaxHeld];
};

thread_local ThreadState tls;

int
captureBacktrace(void **frames, int max)
{
#if CUBICLE_LOCKDEP_HAVE_BACKTRACE
    return backtrace(frames, max);
#else
    (void)frames;
    (void)max;
    return 0;
#endif
}

void
printBacktrace(void *const *frames, int count)
{
#if CUBICLE_LOCKDEP_HAVE_BACKTRACE
    if (count > 0)
        backtrace_symbols_fd(const_cast<void *const *>(frames), count,
                             /*fd=*/2);
    else
        std::fputs("    (no backtrace captured)\n", stderr);
#else
    (void)frames;
    (void)count;
    std::fputs("    (backtrace unavailable on this libc)\n", stderr);
#endif
}

void
printLock(const char *role, const void *lock, const LockTag &tag,
          bool shared)
{
    std::fprintf(stderr,
                 "lockdep:   %s %s (%p) rank=%u/%s key=%" PRIu32
                 " mode=%s\n",
                 role, tag.name, lock,
                 static_cast<unsigned>(tag.rank), lockRankName(tag.rank),
                 tag.key, shared ? "shared" : "exclusive");
}

[[noreturn]] void
violation(const char *kind, const Held &conflict, const LockTag &tag,
          const void *lock, bool shared)
{
    std::fprintf(stderr,
                 "lockdep: FATAL lock hierarchy violation: %s\n", kind);
    printLock("acquiring", lock, tag, shared);
    printLock("while holding", conflict.lock, conflict.tag,
              conflict.shared);
    std::fprintf(stderr,
                 "lockdep: held lock was acquired at:\n");
    void *site = conflict.site;
    printBacktrace(&site, site ? 1 : 0);
    std::fprintf(stderr,
                 "lockdep: bad acquisition attempted at:\n");
    void *now[kMaxFrames];
    printBacktrace(now, captureBacktrace(now, kMaxFrames));
    std::fflush(stderr);
    std::abort();
}

} // namespace

void
onAcquire(const LockTag &tag, const void *lock, bool shared)
{
    ThreadState &st = tls;

    // Rule 1: re-entry of a held lock, in any mode. Covers the fault
    // path re-entering windowMutex_ (shared or exclusive) while a
    // shared hold is already open.
    for (int i = 0; i < st.depth; ++i) {
        if (st.held[i].lock == lock)
            violation("re-entrant acquisition of a held lock",
                      st.held[i], tag, lock, shared);
    }

    if (st.depth > 0) {
        // Rules 2 and 3 only need the strictest (highest-rank, then
        // highest-key) lock currently held; acquisitions are pushed in
        // check order, so that is the maximum over the stack.
        const Held *strictest = &st.held[0];
        for (int i = 1; i < st.depth; ++i) {
            const Held &h = st.held[i];
            if (h.tag.rank > strictest->tag.rank ||
                (h.tag.rank == strictest->tag.rank &&
                 h.tag.key > strictest->tag.key))
                strictest = &h;
        }
        if (tag.rank < strictest->tag.rank)
            violation("rank inversion (acquiring above a held lock)",
                      *strictest, tag, lock, shared);
        if (tag.rank == strictest->tag.rank &&
            tag.key <= strictest->tag.key)
            violation("same-rank acquisition out of key order",
                      *strictest, tag, lock, shared);
    }

    if (st.depth >= kMaxHeld) {
        std::fprintf(stderr,
                     "lockdep: FATAL held-lock stack overflow "
                     "(%d locks) acquiring %s\n",
                     st.depth, tag.name);
        std::fflush(stderr);
        std::abort();
    }

    Held &h = st.held[st.depth];
    h.lock = lock;
    h.tag = tag;
    h.shared = shared;
    h.site = __builtin_return_address(0);
    ++st.depth;
}

void
onRelease(const void *lock)
{
    ThreadState &st = tls;
    // Releases are usually LIFO (scoped guards), but scan from the top
    // so explicit unlock() in another order stays legal.
    for (int i = st.depth - 1; i >= 0; --i) {
        if (st.held[i].lock != lock)
            continue;
        for (int j = i; j + 1 < st.depth; ++j)
            st.held[j] = st.held[j + 1];
        --st.depth;
        return;
    }
    // Unmatched release: the wrapper guards make this unreachable, but
    // do not abort — the underlying mutex has already been released and
    // the process is not at risk of deadlock.
    std::fprintf(stderr,
                 "lockdep: warning: release of un-held lock %p\n", lock);
}

std::size_t
heldCount()
{
    return static_cast<std::size_t>(tls.depth);
}

bool
isHeld(const void *lock)
{
    const ThreadState &st = tls;
    for (int i = 0; i < st.depth; ++i) {
        if (st.held[i].lock == lock)
            return true;
    }
    return false;
}

void
assertHeld(const void *lock, const char *what)
{
    if (isHeld(lock))
        return;
    std::fprintf(stderr,
                 "lockdep: FATAL: %s accessed without its guard "
                 "(%p not held by this thread)\n",
                 what, lock);
    std::fprintf(stderr, "lockdep: unguarded access attempted at:\n");
    void *now[kMaxFrames];
    printBacktrace(now, captureBacktrace(now, kMaxFrames));
    std::fflush(stderr);
    std::abort();
}

} // namespace lockdep
} // namespace cubicleos::core
