#include "apps/httpd/harness.h"

#include <chrono>
#include <cstring>

namespace cubicleos::httpd {

HttpHarness::HttpHarness(core::IsolationMode mode, std::size_t num_pages,
                         uint64_t request_base_cycles, bool sendfile,
                         int tenants)
    : HttpHarness(mode, num_pages, request_base_cycles, sendfile, tenants,
                  nullptr)
{
}

HttpHarness::HttpHarness(core::IsolationMode mode, std::size_t num_pages,
                         uint64_t request_base_cycles, bool sendfile,
                         int tenants, std::unique_ptr<core::Component> app)
    : requestBaseCycles_(request_base_cycles)
{
    core::SystemConfig cfg;
    cfg.numPages = num_pages;
    cfg.mode = mode;
    cfg.virtualizeTags = tenants > 0;
    sys_ = std::make_unique<core::System>(cfg);
    wire_ = std::make_unique<libos::FrameChannel>(&sys_->clock());

    libos::StackOptions opts;
    opts.withNet = true;
    opts.wire = wire_.get();
    libos::addLibosComponents(*sys_, opts);
    if (tenants == 0) {
        Server &s = servers_.emplace_back();
        s.name = "nginx";
        s.nginx = static_cast<NginxComponent *>(&sys_->addComponent(
            std::make_unique<NginxComponent>(s.port, sendfile)));
    }
    for (int t = 0; t < tenants; ++t) {
        Server &s = servers_.emplace_back();
        s.name = "tenant" + std::to_string(t);
        s.docroot = "/" + s.name;
        s.port = static_cast<uint16_t>(8000 + t);
        const std::string log = "tlog" + std::to_string(t);
        s.nginx = static_cast<NginxComponent *>(
            &sys_->addComponent(std::make_unique<NginxComponent>(
                s.name, s.port, sendfile, s.docroot, log)));
        s.log = static_cast<TenantLogComponent *>(&sys_->addComponent(
            std::make_unique<TenantLogComponent>(log)));
    }
    if (app)
        sys_->addComponent(std::move(app));
    libos::finishBoot(*sys_);

    lwipCid_ = sys_->cidOf("lwip");
    for (Server &s : servers_) {
        s.cid = sys_->cidOf(s.name);
        s.poll = sys_->resolve<int64_t(uint64_t)>(s.name, "nginx_poll");
        if (!s.docroot.empty())
            s.nginx->makeDir(s.docroot);
    }

    libos::TcpConfig ccfg;
    ccfg.ipAddr = 0x0A000002;
    client_ = std::make_unique<libos::TcpIpStack>(ccfg);
}

HttpHarness::~HttpHarness() = default;

void
HttpHarness::createFile(int t, const std::string &path, std::size_t size)
{
    servers_[t].nginx->createFile(servers_[t].docroot + path, size);
}

void
HttpHarness::pumpOnce(Server &s)
{
    now_ += 1'000'000; // 1 ms of simulated time per round
    client_->tick(now_);
    client_->pollOutput([&](const uint8_t *p, std::size_t n) {
        wire_->hostSend(libos::FrameChannel::Frame(p, p + n));
    });
    sys_->runAs(s.cid, [&] { s.poll(now_); });
    while (auto frame = wire_->hostRecv())
        client_->input(frame->data(), frame->size());
}

FetchResult
HttpHarness::fetch(int t, const std::string &path, int max_rounds)
{
    Server &s = servers_[t];
    FetchResult res;
    const auto wall_start = std::chrono::steady_clock::now();
    const uint64_t cycles_start = sys_->clock().read();

    // Per-request fixed cost: external client plus network RTTs.
    sys_->clock().charge(requestBaseCycles_);

    const int fd = client_->socket();
    client_->connect(fd, 0x0A000001, s.port);

    const std::string request =
        "GET " + path + " HTTP/1.1\r\nHost: " + s.name + "\r\n\r\n";
    bool request_sent = false;

    std::string &response = response_;
    response.clear();
    std::size_t content_length = 0;
    std::size_t header_end = std::string::npos;
    std::vector<char> buf(16384);

    auto lwip_alive = [&] {
        return sys_->monitor().cubicleAlive(lwipCid_);
    };
    for (int round = 0; round < max_rounds && lwip_alive(); ++round) {
        pumpOnce(s);
        if (!request_sent && client_->isEstablished(fd)) {
            client_->send(fd, request.data(), request.size());
            request_sent = true;
        }
        const int64_t n = client_->recv(fd, buf.data(), buf.size());
        if (n > 0) {
            response.append(buf.data(), static_cast<std::size_t>(n));
        } else if (n == 0) {
            break; // orderly close
        }
        if (header_end == std::string::npos) {
            header_end = response.find("\r\n\r\n");
            if (header_end != std::string::npos) {
                const auto cl = response.find("Content-Length: ");
                if (cl != std::string::npos) {
                    content_length = static_cast<std::size_t>(
                        std::strtoull(response.c_str() + cl + 16,
                                      nullptr, 10));
                }
                // One buffer for the whole response: growing it by
                // doubling allocates up to twice the response size in
                // fresh pages, whose faults would count as latency.
                // A buffer an earlier fetch grew is already that big.
                response.reserve(header_end + 4 + content_length);
            }
        }
        if (header_end != std::string::npos &&
            response.size() >= header_end + 4 + content_length) {
            break;
        }
    }
    client_->close(fd);
    // Drain the FIN exchange: it ends at the first round that moves no
    // frame (at most five).
    for (int i = 0; i < 5 && lwip_alive(); ++i) {
        const uint64_t frames = wire_->framesCarried();
        pumpOnce(s);
        if (wire_->framesCarried() == frames)
            break;
    }

    // The request ends here: copying the body out for the caller is
    // harness work, outside the timed span.
    res.wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    res.modelMs = hw::CycleClock::toNanoseconds(sys_->clock().read() -
                                                cycles_start) /
                  1e6;

    if (response.compare(0, 9, "HTTP/1.1 ") == 0)
        res.status = std::atoi(response.c_str() + 9);
    if (header_end != std::string::npos) {
        res.body.assign(response, header_end + 4);
        res.bodyBytes = res.body.size();
    }
    return res;
}

} // namespace cubicleos::httpd
