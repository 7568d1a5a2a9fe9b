#include "harness/http.h"

#include <cstdlib>
#include <functional>
#include <optional>

#include "hw/prng.h"
#include "libos/stack.h"

namespace cubicleos::perfbench {

namespace {

constexpr uint32_t kServerIp = 0x0A000001;
constexpr uint32_t kClientIp = 0x0A000002;

} // namespace

std::string
expectedBody(const std::string &fullPath, std::size_t size)
{
    // Mirrors NginxComponent::createFile: one PRNG draw per byte,
    // seeded by the path, offset by the byte's file position.
    hw::Prng prng(std::hash<std::string>{}(fullPath));
    std::string out(size, '\0');
    for (std::size_t i = 0; i < size; ++i)
        out[i] = static_cast<char>('A' + ((i + prng.nextBelow(3)) % 26));
    return out;
}

std::string
servedPath(int tenants, int tenant, const std::string &path)
{
    return tenants > 0 ? "/tenant" + std::to_string(tenant) + path : path;
}

HttpDeployment::HttpDeployment(int tenants, Tracer &tracer,
                               SetupTimes &times)
    : tracer_(tracer), tenants_(tenants)
{
    core::SystemConfig cfg;
    cfg.mode = core::IsolationMode::kFull;
    cfg.numPages = 32768;
    if (tenants_ > 0) {
        // 12 infrastructure cubicles + 2 per tenant outgrow the 16
        // hardware tags: multiplex them (DESIGN.md §14).
        cfg.virtualizeTags = true;
        cfg.dynamicTags = 4;
    }

    const uint64_t t0 = monoNs();
    {
        Tracer::Span span(tracer_, SpanKind::kConstruct);
        sys_ = std::make_unique<core::System>(cfg);
        wire_ = std::make_unique<libos::FrameChannel>(&sys_->clock());
    }
    const uint64_t t1 = monoNs();
    {
        Tracer::Span span(tracer_, SpanKind::kBoot);
        libos::StackOptions opts;
        opts.withNet = true;
        opts.wire = wire_.get();
        libos::addLibosComponents(*sys_, opts);
        std::vector<std::string> names;
        if (tenants_ == 0) {
            names.push_back("nginx");
            servers_.push_back(static_cast<httpd::NginxComponent *>(
                &sys_->addComponent(std::make_unique<httpd::NginxComponent>(
                    80, /*sendfile=*/false))));
        }
        for (int t = 0; t < tenants_; ++t) {
            const std::string srv = "tenant" + std::to_string(t);
            const std::string log = "tlog" + std::to_string(t);
            names.push_back(srv);
            servers_.push_back(static_cast<httpd::NginxComponent *>(
                &sys_->addComponent(std::make_unique<httpd::NginxComponent>(
                    srv, static_cast<uint16_t>(8000 + t),
                    /*sendfile=*/false, "/" + srv, log))));
            sys_->addComponent(
                std::make_unique<httpd::TenantLogComponent>(log));
        }
        libos::finishBoot(*sys_);
        for (std::size_t i = 0; i < names.size(); ++i) {
            cids_.push_back(sys_->cidOf(names[i]));
            polls_.push_back(sys_->resolve<int64_t(uint64_t)>(
                names[i], "nginx_poll"));
            if (tenants_ > 0)
                servers_[i]->makeDir("/" + names[i]);
        }
    }
    const uint64_t t2 = monoNs();

    libos::TcpConfig ccfg;
    ccfg.ipAddr = kClientIp;
    client_ = std::make_unique<libos::TcpIpStack>(ccfg);

    times.constructS = static_cast<double>(t1 - t0) / 1e9;
    times.bootS = static_cast<double>(t2 - t1) / 1e9;
}

HttpDeployment::~HttpDeployment() = default;

void
HttpDeployment::createFile(int tenant, const std::string &path,
                           std::size_t size)
{
    servers_[tenants_ > 0 ? tenant : 0]->createFile(
        servedPath(tenants_, tenant, path), size);
}

Counters
HttpDeployment::counters()
{
    Counters c = Counters::read(*sys_, wire_.get());
    c.harnessEntries = entries_;
    return c;
}

void
HttpDeployment::pumpOnce(std::size_t server)
{
    now_ += 1'000'000; // 1 ms of simulated time per round
    {
        Tracer::Span span(tracer_, SpanKind::kClientTick);
        client_->tick(now_);
    }
    {
        Tracer::Span span(tracer_, SpanKind::kClientOutput);
        client_->pollOutput([&](const uint8_t *p, std::size_t n) {
            Tracer::Span send(tracer_, SpanKind::kWireSend);
            wire_->hostSend(libos::FrameChannel::Frame(p, p + n));
        });
    }
    {
        Tracer::Span span(tracer_, SpanKind::kNginxPoll);
        auto &poll = polls_[server];
        sys_->runAs(cids_[server], [&] { poll(now_); });
        ++entries_;
    }
    for (;;) {
        std::optional<libos::FrameChannel::Frame> frame;
        {
            Tracer::Span span(tracer_, SpanKind::kWireRecv);
            frame = wire_->hostRecv();
        }
        if (!frame)
            break;
        Tracer::Span span(tracer_, SpanKind::kClientInput);
        client_->input(frame->data(), frame->size());
    }
}

bool
HttpDeployment::fetch(int tenant, const std::string &path,
                      const std::string &expect, OpSample &sample)
{
    const std::size_t server = tenants_ > 0 ? tenant : 0;
    const uint16_t port =
        static_cast<uint16_t>(tenants_ > 0 ? 8000 + tenant : 80);

    Tracer::Span op(tracer_, SpanKind::kOp);
    const uint64_t wall0 = monoNs();
    const uint64_t cycles0 = sys_->clock().read();

    const int fd = client_->socket();
    client_->connect(fd, kServerIp, port);
    const std::string request =
        "GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n";
    bool sent = false;
    std::string &response = response_;
    response.clear();
    std::size_t contentLength = 0;
    std::size_t headerEnd = std::string::npos;

    for (int round = 0; round < 1'000'000; ++round) {
        pumpOnce(server);
        if (!sent && client_->isEstablished(fd)) {
            client_->send(fd, request.data(), request.size());
            sent = true;
        }
        const int64_t n = client_->recv(fd, buf_.data(), buf_.size());
        if (n > 0)
            response.append(buf_.data(), static_cast<std::size_t>(n));
        else if (n == 0)
            break; // orderly close
        if (headerEnd == std::string::npos) {
            headerEnd = response.find("\r\n\r\n");
            if (headerEnd != std::string::npos) {
                const auto cl = response.find("Content-Length: ");
                if (cl != std::string::npos) {
                    contentLength = static_cast<std::size_t>(std::strtoull(
                        response.c_str() + cl + 16, nullptr, 10));
                }
            }
        }
        if (headerEnd != std::string::npos &&
            response.size() >= headerEnd + 4 + contentLength) {
            break;
        }
    }
    client_->close(fd);
    for (int i = 0; i < 5; ++i)
        pumpOnce(server); // drain the FIN exchange

    sample.wallMs = static_cast<double>(monoNs() - wall0) / 1e6;
    sample.modelMs =
        cyclesToMs(static_cast<double>(sys_->clock().read() - cycles0));

    return response.compare(0, 13, "HTTP/1.1 200 ") == 0 &&
           headerEnd != std::string::npos &&
           response.size() == headerEnd + 4 + expect.size() &&
           response.compare(headerEnd + 4, std::string::npos, expect) == 0;
}

} // namespace cubicleos::perfbench
