/**
 * @file
 * The NGINX stand-in: a static-file HTTP/1.1 server component.
 *
 * Runs as the application cubicle of the paper's Fig. 5 deployment:
 * accepts connections through the LWIP cubicle (CubicleSockApi),
 * serves files from RAMFS through VFSCORE (CubicleFileApi), with all
 * buffers in its own cubicle memory and window-managed per call.
 *
 * Non-blocking design: nginx_poll() advances every connection's state
 * machine one step, exactly like an event-loop web server.
 */

#ifndef CUBICLEOS_APPS_HTTPD_HTTPD_H_
#define CUBICLEOS_APPS_HTTPD_HTTPD_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "builder/image.h"
#include "core/system.h"
#include "libos/sockapi.h"
#include "libos/ukapi.h"

namespace cubicleos::httpd {

/**
 * Builds the code image a tenant cubicle ships: benign synthesised
 * text sealed by a builder-declared CFI entry table. Tenants load at
 * scale (dozens per deployment), so their image is the hardened build
 * that passes the audit's per-cubicle unresolved-site gate — the
 * declared address-taken table resolves the stream's residual naked
 * indirect calls.
 */
inline void
attachTenantImage(core::ComponentSpec &s)
{
    core::verifier::EntryTable table;
    // Fixed seed: every tenant ships the same hardened build, so the
    // verifier's image memoisation kicks in across the fleet.
    s.image = builder::makeCfiImage(4096, 0x7e4a, &table);
    s.indirectTables = {table};
}

/** Server statistics. */
struct HttpdStats {
    uint64_t requests = 0;
    uint64_t bytesSent = 0;
    uint64_t errors = 0;
};

/** The isolated NGINX application component. */
class NginxComponent : public core::Component {
  public:
    /**
     * @param sendfile when set, file bodies are served through the
     * zero-copy path: spans of up to kSendSpan contiguous bytes are
     * borrowed from the backend (vfs_borrow with readahead), queued by
     * reference into the network stack (sendZero) and released once
     * acknowledged — no payload byte is copied between the RAMFS
     * blocks and the TCP segments. Each round reaps completions, then
     * queues the next span: two plain calls into LWIP. When clear,
     * bodies take the classic pread-into-buffer-then-send path.
     */
    explicit NginxComponent(uint16_t port = 80, bool sendfile = false)
        : port_(port), sendfile_(sendfile)
    {
    }

    /**
     * Multi-tenant variant: a named server instance. @p docroot is
     * prefixed to every request path, giving each tenant a private
     * subtree of the shared RAMFS; @p log_to, when non-empty, names a
     * per-tenant log cubicle that receives one cross-call per
     * completed request (the second member of the tenant's cubicle
     * group).
     */
    NginxComponent(std::string name, uint16_t port, bool sendfile,
                   std::string docroot, std::string log_to = "")
        : port_(port), sendfile_(sendfile), name_(std::move(name)),
          docroot_(std::move(docroot)), logTo_(std::move(log_to))
    {
    }

    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = name_;
        s.kind = core::CubicleKind::kIsolated;
        s.stackPages = 32;
        if (docroot_.empty())
            s.image = builder::componentImage(builder::ImageSeed::kApp);
        else // multi-tenant instance
            attachTenantImage(s);
        return s;
    }

    void registerExports(core::Exporter &exp) override;
    void init() override;

    /**
     * Creates a served file of @p size deterministic bytes (host-side
     * test/bench setup; runs inside this cubicle).
     */
    void createFile(const std::string &path, std::size_t size);

    /** Creates a directory (host-side setup; runs inside the cubicle). */
    void makeDir(const std::string &path);

    const HttpdStats &stats() const { return stats_; }

  private:
    /**
     * Copy-path staging chunk. 32 KiB (half the 64 KiB socket send
     * buffer) amortises the per-chunk grant bracket — stage, open,
     * cross-call, remove, reclaim — over 8 pages that the monitor
     * retags in a single range-granular trap each way.
     */
    static constexpr std::size_t kIoChunk = 32768;
    /**
     * Zero-copy borrow cap: half of LWIP's 64 KiB send buffer, so an
     * all-or-nothing sendZero of one span can always overlap the ACK
     * wait of the previous one instead of stop-and-waiting.
     */
    static constexpr std::size_t kSendSpan = 32768;

    struct Conn {
        int fd = -1;
        char *buf = nullptr; ///< per-connection cubicle I/O buffer
        enum State { kReadRequest, kSendHeader, kSendBody, kClosing }
            state = kReadRequest;
        std::string request;
        std::string header;
        std::size_t headerSent = 0;
        int fileFd = -1;
        uint64_t fileSize = 0;
        uint64_t fileOff = 0;
        std::size_t chunkLen = 0; ///< bytes of body staged in buffer
        std::size_t chunkSent = 0;
        // Zero-copy sendfile state.
        libos::VfsSpan span;     ///< borrowed but not yet queued span
        bool spanPending = false;
        std::deque<uint64_t> zcTokens; ///< queued spans awaiting ACK
    };

    int64_t poll(uint64_t now_ns);
    void progress(Conn &conn);
    void handleRequest(Conn &conn);
    /**
     * Drops a connection whose peer cubicle died mid-request
     * (kNetPeerFault / kErrPeerFault): releases whatever this side
     * still holds, counts one error, and keeps the server loop
     * running — other connections and future accepts are unaffected.
     */
    void dropConn(Conn &conn);
    /** Releases every span the stack has fully acknowledged. */
    void releaseCompleted(Conn &conn);

    uint16_t port_;
    bool sendfile_;
    std::string name_ = "nginx";
    std::string docroot_;
    std::string logTo_;
    core::CrossFn<int64_t(int64_t)> logFn_;
    uint64_t loggedRequests_ = 0;
    core::Cid lwipCid_ = core::kNoCubicle;
    int listenFd_ = -1;
    std::unique_ptr<libos::CubicleSockApi> sock_;
    std::unique_ptr<libos::CubicleFileApi> fs_;
    char *ioBuf_ = nullptr; ///< cubicle-owned I/O staging buffer
    std::vector<Conn> conns_;
    HttpdStats stats_;
};

/**
 * Per-tenant request log: the second cubicle of a tenant's group.
 *
 * Keeps its running totals in its own cubicle memory, so a parked
 * tenant's accounting state lives behind the parked tag and the
 * log_requests cross-call exercises the full fault-back-in path under
 * tag pressure (DESIGN.md §14).
 */
class TenantLogComponent : public core::Component {
  public:
    explicit TenantLogComponent(std::string name)
        : name_(std::move(name))
    {
    }

    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = name_;
        s.kind = core::CubicleKind::kIsolated;
        s.stackPages = 4;
        attachTenantImage(s);
        return s;
    }

    void registerExports(core::Exporter &exp) override
    {
        exp.fn<int64_t(int64_t)>("log_requests", [this](int64_t n) {
            sys()->touch(counters_, sizeof(uint64_t) * 2,
                         hw::Access::kWrite);
            counters_[0] += static_cast<uint64_t>(n);
            counters_[1] += 1;
            return static_cast<int64_t>(counters_[0]);
        });
    }

    void init() override
    {
        counters_ = static_cast<uint64_t *>(
            sys()->heapAlloc(sizeof(uint64_t) * 2));
        counters_[0] = counters_[1] = 0;
    }

    void teardown() override
    {
        // The pre-crash counters died with the old heap; init() will
        // allocate fresh ones in the restarted cubicle.
        counters_ = nullptr;
    }

    /** Total requests this tenant has served (host-side readback). */
    uint64_t totalRequests() const { return counters_ ? counters_[0] : 0; }

  private:
    std::string name_;
    uint64_t *counters_ = nullptr; ///< cubicle memory: {requests, batches}
};

} // namespace cubicleos::httpd

#endif // CUBICLEOS_APPS_HTTPD_HTTPD_H_
