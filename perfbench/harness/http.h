/**
 * @file
 * The benchmark's own HTTP load generator: boots the Fig. 5 NGINX deployment
 * (or its multi-tenant variant) and fetches files through a host-side
 * TCP client, performing the same steps as httpd::HttpHarness::fetch
 * but with no fixed per-request client cycles and with a span around
 * every call into a layer.
 */

#ifndef CUBICLEOS_PERFBENCH_HTTP_H_
#define CUBICLEOS_PERFBENCH_HTTP_H_

#include <memory>
#include <string>
#include <vector>

#include "apps/httpd/httpd.h"
#include "harness/common.h"
#include "libos/netdev.h"
#include "libos/tcpip.h"

namespace cubicleos::perfbench {

/** The bytes NginxComponent::createFile writes for @p fullPath. */
std::string expectedBody(const std::string &fullPath, std::size_t size);

/**
 * Where @p path of @p tenant lives in the RAMFS: under the tenant's
 * docroot in a multi-tenant deployment (@p tenants > 0).
 */
std::string servedPath(int tenants, int tenant, const std::string &path);

/** Set-up phase durations of one deployment, in seconds. */
struct SetupTimes {
    double constructS = 0;
    double bootS = 0;
    double populateS = 0;
    double totalS() const { return constructS + bootS + populateS; }
};

class HttpDeployment {
  public:
    /**
     * @param tenants 0 for the single-server Fig. 5 deployment (port
     *        80, copy path); otherwise that many tenant groups on
     *        virtualised MPK tags, tenant t listening on 8000 + t
     */
    HttpDeployment(int tenants, Tracer &tracer, SetupTimes &times);
    ~HttpDeployment();

    HttpDeployment(const HttpDeployment &) = delete;
    HttpDeployment &operator=(const HttpDeployment &) = delete;

    /** Creates @p path (tenant-relative) of @p size bytes. */
    void createFile(int tenant, const std::string &path, std::size_t size);

    /**
     * GETs @p path from @p tenant over a fresh connection and
     * byte-compares the body with @p expect.
     * @return true on status 200 with the expected body.
     */
    bool fetch(int tenant, const std::string &path,
               const std::string &expect, OpSample &sample);

    /** Counter snapshot including the harness's own switches. */
    Counters counters();

  private:
    void pumpOnce(std::size_t server);

    Tracer &tracer_;
    int tenants_;
    std::unique_ptr<core::System> sys_;
    std::unique_ptr<libos::FrameChannel> wire_;
    std::unique_ptr<libos::TcpIpStack> client_;
    std::vector<httpd::NginxComponent *> servers_;
    std::vector<core::CrossFn<int64_t(uint64_t)>> polls_;
    std::vector<core::Cid> cids_;
    uint64_t now_ = 0;
    uint64_t entries_ = 0;
    std::vector<char> buf_ = std::vector<char>(16384);
    std::string response_;
};

} // namespace cubicleos::perfbench

#endif // CUBICLEOS_PERFBENCH_HTTP_H_
