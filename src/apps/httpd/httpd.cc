#include "apps/httpd/httpd.h"

#include <cstring>

#include "hw/prng.h"

namespace cubicleos::httpd {

using libos::NetErr;

void
NginxComponent::init()
{
    sock_ = std::make_unique<libos::CubicleSockApi>(*sys());
    fs_ = std::make_unique<libos::CubicleFileApi>(*sys(), "ramfs");
    lwipCid_ = sys()->cidOf("lwip");

    auto buf_range =
        sys()->monitor().allocPagesFor(self(), hw::pagesFor(kIoChunk),
                                       mem::PageType::kHeap);
    if (!buf_range.valid())
        throw core::OutOfMemory("nginx I/O buffer");
    ioBuf_ = reinterpret_cast<char *>(buf_range.ptr);

    listenFd_ = sock_->socket();
    if (sock_->bind(listenFd_, port_) != 0 ||
        sock_->listen(listenFd_, 32) != 0) {
        throw core::LoaderError("nginx: cannot listen on port " +
                                std::to_string(port_));
    }
}

void
NginxComponent::registerExports(core::Exporter &exp)
{
    exp.fn<int64_t(uint64_t)>(
        "nginx_poll", [this](uint64_t now_ns) { return poll(now_ns); });
}

void
NginxComponent::makeDir(const std::string &path)
{
    sys()->runAs(self(), [&] {
        if (fs_->mkdir(path.c_str()) != 0)
            throw core::LoaderError("nginx: cannot mkdir " + path);
    });
}

void
NginxComponent::createFile(const std::string &path, std::size_t size)
{
    sys()->runAs(self(), [&] {
        const int fd =
            fs_->open(path.c_str(), libos::kCreate | libos::kWrOnly |
                                        libos::kTrunc);
        if (fd < 0)
            throw core::LoaderError("nginx: cannot create " + path);
        hw::Prng prng(std::hash<std::string>{}(path));
        std::size_t written = 0;
        while (written < size) {
            const std::size_t chunk =
                std::min(kIoChunk, size - written);
            for (std::size_t i = 0; i < chunk; ++i) {
                ioBuf_[i] = static_cast<char>(
                    'A' + ((written + i + prng.nextBelow(3)) % 26));
            }
            fs_->pwrite(fd, ioBuf_, chunk, written);
            written += chunk;
        }
        fs_->close(fd);
    });
}

int64_t
NginxComponent::poll(uint64_t now_ns)
{
    // Drive the network stack, accept new connections, advance all.
    sock_->poll(now_ns);

    for (;;) {
        const int fd = sock_->accept(listenFd_);
        if (fd < 0)
            break;
        Conn conn;
        conn.fd = fd;
        conn.buf = static_cast<char *>(sys()->heapAlloc(kIoChunk));
        conns_.push_back(conn);
    }

    int64_t active = 0;
    for (auto &conn : conns_) {
        if (conn.fd >= 0) {
            progress(conn);
            ++active;
        }
    }
    std::erase_if(conns_, [](const Conn &c) { return c.fd < 0; });

    // Tenant accounting: report completed requests to this tenant's
    // log cubicle, one batched cross-call per poll round.
    if (!logTo_.empty() && stats_.requests > loggedRequests_) {
        if (!logFn_)
            logFn_ = sys()->resolve<int64_t(int64_t)>(logTo_,
                                                      "log_requests");
        try {
            logFn_(
                static_cast<int64_t>(stats_.requests - loggedRequests_));
            loggedRequests_ = stats_.requests;
        } catch (const core::PeerFault &) {
            // Log cubicle destroyed mid-deployment: keep serving. A
            // restarted log rebuilds its counters from zero (its old
            // heap died with it), so drop the high-water mark too —
            // the next successful call re-delivers the full running
            // total and the log converges to the truth.
            loggedRequests_ = 0;
        }
    }
    return active;
}

void
NginxComponent::handleRequest(Conn &conn)
{
    // Parse "GET <path> HTTP/1.x".
    std::string path = "/";
    if (conn.request.compare(0, 4, "GET ") == 0) {
        const std::size_t sp = conn.request.find(' ', 4);
        if (sp != std::string::npos)
            path = conn.request.substr(4, sp - 4);
    }
    // Tenants serve from a private subtree of the shared RAMFS.
    path = docroot_ + path;

    libos::VfsStat st;
    const int rc = fs_->stat(path.c_str(), &st);
    if (rc != 0 || !st.isFile()) {
        conn.header = "HTTP/1.1 404 Not Found\r\n"
                      "Content-Length: 0\r\n"
                      "Connection: close\r\n\r\n";
        conn.fileFd = -1;
        conn.fileSize = 0;
        ++stats_.errors;
    } else {
        conn.fileFd = fs_->open(path.c_str(), libos::kRdOnly);
        conn.fileSize = st.size;
        conn.header = "HTTP/1.1 200 OK\r\n"
                      "Content-Length: " +
                      std::to_string(st.size) +
                      "\r\n"
                      "Content-Type: application/octet-stream\r\n"
                      "Connection: close\r\n\r\n";
    }
    conn.state = Conn::kSendHeader;
    conn.headerSent = 0;
}

void
NginxComponent::progress(Conn &conn)
{
    switch (conn.state) {
      case Conn::kReadRequest: {
        const int64_t n = sock_->recv(conn.fd, conn.buf, kIoChunk);
        if (n > 0) {
            conn.request.append(conn.buf, static_cast<std::size_t>(n));
            if (conn.request.find("\r\n\r\n") != std::string::npos)
                handleRequest(conn);
        } else if (n == 0 || (n < 0 && n != NetErr::kNetAgain)) {
            sock_->close(conn.fd);
            sys()->heapFree(conn.buf);
            conn.buf = nullptr;
            conn.fd = -1;
        }
        break;
      }
      case Conn::kSendHeader: {
        // Stage the header in the cubicle buffer and push it out.
        const std::size_t remaining =
            conn.header.size() - conn.headerSent;
        const std::size_t chunk = std::min(remaining, kIoChunk);
        std::memcpy(conn.buf, conn.header.data() + conn.headerSent,
                    chunk);
        sys()->stats().countDataCopy(chunk); // header → staging buffer
        const int64_t n = sock_->send(conn.fd, conn.buf, chunk);
        if (n == NetErr::kNetPeerFault) {
            dropConn(conn);
            break;
        }
        if (n > 0)
            conn.headerSent += static_cast<std::size_t>(n);
        if (conn.headerSent == conn.header.size()) {
            ++stats_.requests;
            if (conn.fileFd >= 0) {
                conn.state = Conn::kSendBody;
                conn.fileOff = 0;
                conn.chunkLen = conn.chunkSent = 0;
            } else {
                conn.state = Conn::kClosing;
            }
        }
        break;
      }
      case Conn::kSendBody: {
        if (sendfile_) {
            if (!conn.spanPending) {
                if (conn.fileOff >= conn.fileSize) {
                    // Keep fileFd open: outstanding spans are released
                    // through it once the stack acknowledges them.
                    conn.state = Conn::kClosing;
                    break;
                }
                const int rc =
                    fs_->borrow(conn.fileFd, conn.fileOff, lwipCid_,
                                kSendSpan, &conn.span);
                if (rc != 0 || conn.span.len == 0) {
                    conn.state = Conn::kClosing;
                    break;
                }
                conn.spanPending = true;
            }
            // Reap completions first, so tokens the stack has freed are
            // released this round, then queue the span. All or nothing:
            // on kNetAgain the same borrowed span is retried next poll
            // without re-borrowing.
            releaseCompleted(conn);
            const int64_t n =
                sock_->sendZero(conn.fd, conn.span.ptr, conn.span.len);
            if (n > 0) {
                conn.fileOff += conn.span.len;
                stats_.bytesSent += conn.span.len;
                conn.zcTokens.push_back(conn.span.token);
                conn.spanPending = false;
            } else if (n == NetErr::kNetPeerFault) {
                dropConn(conn);
            } else if (n != NetErr::kNetAgain) {
                conn.state = Conn::kClosing;
            }
            break;
        }
        if (conn.chunkSent == conn.chunkLen) {
            // Refill from the file system.
            if (conn.fileOff >= conn.fileSize) {
                fs_->close(conn.fileFd);
                conn.fileFd = -1;
                conn.state = Conn::kClosing;
                break;
            }
            const int64_t got = fs_->pread(conn.fileFd, conn.buf,
                                           kIoChunk, conn.fileOff);
            if (got <= 0) {
                fs_->close(conn.fileFd);
                conn.fileFd = -1;
                conn.state = Conn::kClosing;
                break;
            }
            conn.chunkLen = static_cast<std::size_t>(got);
            conn.chunkSent = 0;
            conn.fileOff += static_cast<uint64_t>(got);
        }
        // memmove-free partial sends: send from the staged chunk.
        const int64_t n = sock_->send(conn.fd,
                                      conn.buf + conn.chunkSent,
                                      conn.chunkLen - conn.chunkSent);
        if (n == NetErr::kNetPeerFault) {
            dropConn(conn);
            break;
        }
        if (n > 0) {
            conn.chunkSent += static_cast<std::size_t>(n);
            stats_.bytesSent += static_cast<uint64_t>(n);
        }
        break;
      }
      case Conn::kClosing: {
        // A dead network stack can never drain its send queue or
        // acknowledge outstanding spans: the orderly close would spin
        // forever. Drop the connection instead.
        if (!sys()->monitor().cubicleAlive(lwipCid_)) {
            dropConn(conn);
            break;
        }
        if (conn.spanPending && conn.fileFd >= 0) {
            // Borrowed but never queued (connection died first): give
            // it straight back.
            fs_->release(conn.fileFd, conn.span.token);
            conn.spanPending = false;
        }
        releaseCompleted(conn);
        if (sock_->sendDrained(conn.fd) && conn.zcTokens.empty()) {
            if (conn.fileFd >= 0) {
                fs_->close(conn.fileFd);
                conn.fileFd = -1;
            }
            sock_->close(conn.fd);
            sys()->heapFree(conn.buf);
            conn.buf = nullptr;
            conn.fd = -1;
        }
        break;
      }
    }
}

void
NginxComponent::dropConn(Conn &conn)
{
    // Best-effort cleanup: any of these peers may be the one that
    // died, and each call below already degrades to an error return
    // (never an exception) in that case.
    if (conn.spanPending && conn.fileFd >= 0) {
        fs_->release(conn.fileFd, conn.span.token);
        conn.spanPending = false;
    }
    while (!conn.zcTokens.empty()) {
        if (conn.fileFd >= 0)
            fs_->release(conn.fileFd, conn.zcTokens.front());
        conn.zcTokens.pop_front();
    }
    if (conn.fileFd >= 0) {
        fs_->close(conn.fileFd);
        conn.fileFd = -1;
    }
    sock_->close(conn.fd);
    sys()->heapFree(conn.buf);
    conn.buf = nullptr;
    conn.fd = -1;
    ++stats_.errors;
}

void
NginxComponent::releaseCompleted(Conn &conn)
{
    if (conn.zcTokens.empty() || conn.fileFd < 0)
        return;
    // Spans complete in FIFO submission order, so the completion count
    // maps onto our oldest outstanding tokens. A dead stack reports a
    // negative count and releases nothing.
    int64_t done = sock_->zeroCopyDone(conn.fd);
    while (done > 0 && !conn.zcTokens.empty()) {
        fs_->release(conn.fileFd, conn.zcTokens.front());
        conn.zcTokens.pop_front();
        --done;
    }
}

} // namespace cubicleos::httpd
