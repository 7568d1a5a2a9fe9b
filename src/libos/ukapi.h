/**
 * @file
 * CubicleFileApi: the application-side porting glue for file I/O.
 *
 * This class is the analogue of the paper's per-application porting
 * effort (SQLite: 620 SLOC, NGINX: 390 SLOC): every VFS call is
 * bracketed by grant-layer window management so the callee cubicles
 * can access the caller's buffers, following Fig. 2's open→call→close
 * pattern and the nested-call rule (the caller opens the window for
 * both VFSCORE and the backend, §5.6).
 *
 * Caller memory crosses only inside a Grant, one bracket for every
 * kind of argument. Paths and small out-structures are copied to a
 * dedicated, page-aligned staging page, so unrelated caller data never
 * shares a windowed page (the alignment discipline of §5.3); data
 * buffers are granted in place.
 *
 * Each staged page or data buffer is prestaged for the backend, which
 * is the only cubicle that reads or writes it; VFSCORE validates it
 * without touching it (System::checkAccess), so the page stays on the
 * backend's tag. After the call the grant closes the window and hands
 * the page back to the caller's tag in one retag, so a per-call round
 * trip takes no trap: the paper's three traps per call (VFSCORE's
 * access, the backend's, the caller's reclaim) are the Fig. 6 MPK
 * overhead. The staging page's window asks to be hot (§8): the page
 * holds no application data, so where the monitor has a key its grant
 * is a no-op restage and the page stays open to the file stack;
 * without one it is closed between calls like a data buffer.
 */

#ifndef CUBICLEOS_LIBOS_UKAPI_H_
#define CUBICLEOS_LIBOS_UKAPI_H_

#include "core/system.h"
#include "libos/fileapi.h"
#include "libos/grant.h"

namespace cubicleos::libos {

/** File API bound to cross-cubicle VFS calls with window management. */
class CubicleFileApi : public FileApi {
  public:
    /**
     * Binds to @p sys's VFS; must be constructed while executing inside
     * the application cubicle (allocates the staging page there).
     *
     * @param backend_name the mounted backend whose cubicle also needs
     *        window access (nested-call rule), e.g. "ramfs".
     * @param hot_windows keep buffer windows open across calls and
     *        skip the per-call prestage and hand-back, implementing the
     *        paper's proposed optimisation for frequently-used windows
     *        (§8: "window-specific tags that reduce overhead for
     *        frequently-used windows"). Trades temporal-isolation
     *        granularity for fewer retags; measured by bench_ablation.
     */
    CubicleFileApi(core::System &sys, const std::string &backend_name,
                   bool hot_windows = false);
    ~CubicleFileApi() override;

    int open(const char *path, int flags) override;
    int close(int fd) override;
    int64_t read(int fd, void *buf, std::size_t n) override;
    int64_t write(int fd, const void *buf, std::size_t n) override;
    int64_t pread(int fd, void *buf, std::size_t n, uint64_t off) override;
    int64_t pwrite(int fd, const void *buf, std::size_t n,
                   uint64_t off) override;
    int64_t lseek(int fd, int64_t off, int whence) override;
    int stat(const char *path, VfsStat *st) override;
    int fstat(int fd, VfsStat *st) override;
    int unlink(const char *path) override;
    int mkdir(const char *path) override;
    int ftruncate(int fd, uint64_t size) override;
    int fsync(int fd) override;
    int readdir(const char *path, uint64_t idx, VfsDirent *out) override;

    /**
     * Borrows a grant-protected span of the file's backing blocks at
     * @p off (the zero-copy sendfile primitive): the backend pins the
     * blocks and opens a window over them for cubicle @p peer. The
     * backend may merge physically-contiguous blocks into one span
     * (readahead); @p max_len caps the span length (0 = no caller
     * cap). The span stays valid until release(fd, out->token).
     * Returns 0 (span in @p out, len 0 at EOF) or a negative VfsErr.
     */
    int borrow(int fd, uint64_t off, core::Cid peer, std::size_t max_len,
               VfsSpan *out);
    /** Returns a borrowed span; the backend revokes and unpins. */
    int release(int fd, uint64_t token);

    /**
     * Crash teardown (DESIGN.md §15): forgets the staging page and both
     * windows without releasing them. Call from Component::teardown
     * after the owning cubicle was destroyed — the monitor already
     * reclaimed those pages and windows, and the remembered ids may
     * have been reissued. The destructor is then a no-op.
     */
    void abandon() noexcept
    {
        staging_ = {};
        stageWin_.abandon();
        ioWin_.abandon();
    }

  private:
    /**
     * The one staging bracket: copies @p path (when given) to the
     * staging page and runs @p call(path slot, out-struct slot) inside
     * a Grant of the page, prestaged for the backend to read, or to
     * write when an @p Out comes back. Once the page is home, copies
     * the staged out-struct to @p out (Out = void: none).
     */
    template <typename Out, typename Call>
    int staged(const char *path, Out *out, Call &&call);

    core::System &sys_;
    core::Cid owner_;     ///< the constructing cubicle, the page's owner
    core::Cid vfsCid_;
    core::Cid backendCid_;
    PeerSet peers_;       ///< {VFSCORE, backend}: the nested-call ACL set
    mem::PageRange staging_; ///< page for paths (at 0) and out-structs
    GrantWindow stageWin_; ///< staging-page window (asks to be hot)
    GrantWindow ioWin_;   ///< per-I/O buffer window (hot-pooled if asked)

    core::CrossFn<int(const char *, int)> open_;
    core::CrossFn<int(int)> close_;
    core::CrossFn<int64_t(int, void *, std::size_t)> read_;
    core::CrossFn<int64_t(int, const void *, std::size_t)> write_;
    core::CrossFn<int64_t(int, void *, std::size_t, uint64_t)> pread_;
    core::CrossFn<int64_t(int, const void *, std::size_t, uint64_t)>
        pwrite_;
    core::CrossFn<int64_t(int, int64_t, int)> lseek_;
    core::CrossFn<int(int, VfsStat *)> fstat_;
    core::CrossFn<int(const char *, VfsStat *)> stat_;
    core::CrossFn<int(const char *)> unlink_;
    core::CrossFn<int(const char *)> mkdir_;
    core::CrossFn<int(const char *, uint64_t, VfsDirent *)> readdir_;
    core::CrossFn<int(int, uint64_t)> ftruncate_;
    core::CrossFn<int(int)> fsync_;
    core::CrossFn<int(int, uint64_t, core::Cid, std::size_t, VfsSpan *)>
        borrow_;
    core::CrossFn<int(int, uint64_t)> release_;
};

/**
 * Mounts @p backend at the VFS root. Helper used by boot code; must run
 * inside a cubicle (usually the application's or BOOT's).
 */
int mountRoot(core::System &sys, const std::string &backend);

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_UKAPI_H_
