/**
 * @file
 * HTTP harness: boots the networked NGINX deployment and drives it
 * with a host-side TCP client — the siege stand-in of the paper's §6.3
 * experiment.
 *
 * One harness covers every in-tree web deployment: Fig. 5's eight
 * isolated cubicles with one NGINX on port 80, the multi-tenant
 * deployment whose tenant groups outgrow the 16 MPK keys (DESIGN.md
 * §14), and — through a subclass registering one more application
 * cubicle — the crash lab (baselines/crashlab.h).
 *
 * Reported latency = real wall time of the simulation + modelled
 * hardware cycles (wire latency, MPK costs) at the paper's CPU
 * frequency.
 */

#ifndef CUBICLEOS_APPS_HTTPD_HARNESS_H_
#define CUBICLEOS_APPS_HTTPD_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "apps/httpd/httpd.h"
#include "libos/netdev.h"
#include "libos/stack.h"
#include "libos/tcpip.h"

namespace cubicleos::httpd {

/** One fetched response. */
struct FetchResult {
    int status = 0;
    std::size_t bodyBytes = 0;
    std::string body;     ///< response payload (byte-identity checks)
    double wallMs = 0;    ///< real time spent simulating
    double modelMs = 0;   ///< modelled hardware time
    double latencyMs() const { return wallMs + modelMs; }
};

/** Boots and drives a networked NGINX deployment. */
class HttpHarness {
  public:
    /**
     * Fixed per-request cost modelling the external client and network
     * round trips that dominate small-file latency in the paper
     * (≈5 ms at 2.2 GHz).
     */
    static constexpr uint64_t kRequestBaseCycles = 11'000'000;
    /** Default event-loop budget of one fetch. */
    static constexpr int kMaxRounds = 1'000'000;

    /**
     * @param mode isolation mode (Unikraft baseline vs CubicleOS)
     * @param num_pages simulated memory size in pages
     * @param request_base_cycles fixed per-request client/wire cost
     * @param sendfile serve file bodies through the zero-copy path
     * @param tenants 0 boots Fig. 5's deployment: one server `nginx`
     *        on port 80. N boots N tenant groups instead: server t is
     *        NGINX instance `tenant<t>` on port 8000+t with a private
     *        docroot, plus its request-log cubicle `tlog<t>`. Tag
     *        virtualisation is then on, since 12 infrastructure
     *        cubicles + 2 per tenant outgrow the 16 hardware keys
     *        almost immediately; parked tenants keep full isolation
     *        and fault back in when a request arrives.
     */
    explicit HttpHarness(core::IsolationMode mode,
                         std::size_t num_pages = 32768,
                         uint64_t request_base_cycles = kRequestBaseCycles,
                         bool sendfile = false, int tenants = 0);
    ~HttpHarness();

    /** Creates a file with deterministic contents for server @p t. */
    void createFile(int t, const std::string &path, std::size_t size);
    void createFile(const std::string &path, std::size_t size)
    {
        createFile(0, path, size);
    }

    /**
     * Fetches @p path from server @p t over a fresh connection and
     * measures its latency. @p max_rounds caps the event-loop budget:
     * a small cap abandons the request client-side, leaving the
     * server connection mid-state (fault-injection setup for killing
     * a peer under it). A dead network-stack cubicle can never answer,
     * so the fetch then stops with status 0.
     */
    FetchResult fetch(int t, const std::string &path,
                      int max_rounds = kMaxRounds);
    FetchResult fetch(const std::string &path, int max_rounds = kMaxRounds)
    {
        return fetch(0, path, max_rounds);
    }

    /** Drives @p rounds of server 0's event loop with no request. */
    void pump(int rounds)
    {
        while (rounds-- > 0)
            pumpOnce(servers_[0]);
    }

    core::System &sys() { return *sys_; }
    NginxComponent &nginx(int t = 0) { return *servers_[t].nginx; }
    const TenantLogComponent &tenantLog(int t) const
    {
        return *servers_[t].log;
    }
    libos::FrameChannel &wire() { return *wire_; }

  protected:
    /**
     * As the public constructor, plus @p app (when non-null): one more
     * application cubicle, registered after the servers and booted
     * with them.
     */
    HttpHarness(core::IsolationMode mode, std::size_t num_pages,
                uint64_t request_base_cycles, bool sendfile, int tenants,
                std::unique_ptr<core::Component> app);

  private:
    /** One NGINX instance and the event-loop entry that drives it. */
    struct Server {
        std::string name; ///< cubicle name, also the Host header
        std::string docroot; ///< "" or "/tenant<t>"
        uint16_t port = 80;
        NginxComponent *nginx = nullptr;
        TenantLogComponent *log = nullptr; ///< tenant groups only
        core::Cid cid = core::kNoCubicle;
        core::CrossFn<int64_t(uint64_t)> poll;
    };

    /**
     * One simulated millisecond of the event loop. Only @p s runs, so
     * idle tenants stay parked — which is what makes the physical-tag
     * hit rate meaningful under per-tenant request batching.
     */
    void pumpOnce(Server &s);

    std::unique_ptr<core::System> sys_;
    std::unique_ptr<libos::FrameChannel> wire_;
    std::unique_ptr<libos::TcpIpStack> client_;
    std::vector<Server> servers_;
    core::Cid lwipCid_ = core::kNoCubicle;
    uint64_t requestBaseCycles_;
    uint64_t now_ = 0;
    /**
     * The client's response buffer, reused by every fetch: a large
     * response lands in pages an earlier one already faulted in,
     * instead of fresh ones whose host page faults would count as
     * request latency.
     */
    std::string response_;
};

} // namespace cubicleos::httpd

#endif // CUBICLEOS_APPS_HTTPD_HARNESS_H_
