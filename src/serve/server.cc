#include "serve/server.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/binio.hh"
#include "util/logging.hh"

namespace cascade {

namespace {

enum Op : uint8_t
{
    kOpEmbed = 1,
    kOpScore = 2,
    kOpStats = 3,
    kOpShutdown = 4
};

enum Status : uint8_t
{
    kOk = 0,
    kBadRequest = 1
};

/** Fill an AF_UNIX address; rejects over-long paths. */
bool
unixAddress(const std::string &path, sockaddr_un &addr)
{
    if (path.empty() || path.size() >= sizeof(addr.sun_path))
        return false;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

} // namespace

ServeSocketServer::ServeSocketServer(ServeEngine &engine,
                                     ServeServerOptions opts)
    : engine_(engine), opts_(std::move(opts))
{
}

ServeSocketServer::~ServeSocketServer()
{
    stop();
}

bool
ServeSocketServer::start()
{
    CASCADE_CHECK(!running_.load() && readers_.empty(),
                  "serve: server already started");
    sockaddr_un addr;
    if (!unixAddress(opts_.socketPath, addr)) {
        CASCADE_LOG("serve: bad socket path '%s'",
                    opts_.socketPath.c_str());
        return false;
    }
    // Non-blocking: every reader polls this one socket and then
    // accepts, so all but one of the readers woken for a connection
    // find the queue empty. They must get EAGAIN and poll again; a
    // blocking accept() would park them where stop() cannot reach.
    // Accepted sockets stay blocking (accept() does not inherit
    // O_NONBLOCK on Linux).
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listenFd_ < 0) {
        CASCADE_LOG("serve: socket() failed: %s",
                    std::strerror(errno));
        return false;
    }
    // A stale socket file from a dead server blocks bind; remove it.
    if (::unlink(opts_.socketPath.c_str()) != 0 && errno != ENOENT) {
        CASCADE_LOG("serve: cannot remove stale socket %s: %s",
                    opts_.socketPath.c_str(), std::strerror(errno));
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listenFd_, 64) != 0) {
        CASCADE_LOG("serve: bind/listen on %s failed: %s",
                    opts_.socketPath.c_str(), std::strerror(errno));
        if (::close(listenFd_) != 0)
            CASCADE_LOG("serve: close failed: %s",
                        std::strerror(errno));
        listenFd_ = -1;
        return false;
    }
    stopping_.store(false);
    running_.store(true);
    const size_t n = opts_.readerThreads ? opts_.readerThreads : 1;
    readers_.reserve(n);
    for (size_t i = 0; i < n; ++i)
        readers_.emplace_back([this, i] { readerMain(i); });
    return true;
}

void
ServeSocketServer::stop()
{
    if (readers_.empty() && listenFd_ < 0)
        return;
    stopping_.store(true);
    for (std::thread &t : readers_)
        if (t.joinable())
            t.join();
    readers_.clear();
    if (listenFd_ >= 0) {
        if (::close(listenFd_) != 0)
            CASCADE_LOG("serve: close failed: %s",
                        std::strerror(errno));
        listenFd_ = -1;
        if (::unlink(opts_.socketPath.c_str()) != 0 &&
            errno != ENOENT)
            CASCADE_LOG("serve: cannot remove socket %s: %s",
                        opts_.socketPath.c_str(),
                        std::strerror(errno));
    }
    running_.store(false);
}

void
ServeSocketServer::readerMain(size_t idx)
{
    (void)idx;
    // One reader per thread, kept across connections.
    ServeReader reader(engine_);
    while (!stopping_.load()) {
        // Poll with a short deadline so a stop() (or a peer's
        // shutdown request) is noticed without a connection.
        pollfd p{listenFd_, POLLIN, 0};
        const int pr = ::poll(&p, 1, 100);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            CASCADE_LOG("serve: poll failed: %s",
                        std::strerror(errno));
            break;
        }
        if (pr == 0 || !(p.revents & POLLIN))
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED ||
                errno == EAGAIN)
                continue;
            CASCADE_LOG("serve: accept failed: %s",
                        std::strerror(errno));
            break;
        }
        serveConnection(fd, reader);
        if (::close(fd) != 0)
            CASCADE_LOG("serve: close failed: %s",
                        std::strerror(errno));
    }
}

void
ServeSocketServer::serveConnection(int fd, ServeReader &reader)
{
    std::string req;
    int idle_ms = 0;
    while (!stopping_.load()) {
        // Wait for readability in short slices so an idle connection
        // still notices stop()/shutdown promptly; only once bytes are
        // pending do we commit to a full framed read (never slicing a
        // frame mid-flight).
        pollfd p{fd, POLLIN, 0};
        const int pr = ::poll(&p, 1, 100);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        if (pr == 0) {
            idle_ms += 100;
            if (opts_.requestTimeoutMs >= 0 &&
                idle_ms >= opts_.requestTimeoutMs)
                return; // idle too long: free the thread
            continue;
        }
        idle_ms = 0;
        const FrameStatus st =
            readFrameFd(fd, req, opts_.requestTimeoutMs);
        if (st != FrameStatus::Ok)
            return; // EOF, deadline or corrupt frame: drop the client
        if (!handleRequest(fd, req, reader))
            return;
    }
}

bool
ServeSocketServer::handleRequest(int fd, const std::string &req,
                                 ServeReader &reader)
{
    ByteReader r(req);
    uint8_t op = 0;
    ByteWriter resp;
    // Node ids index the model's dense per-node state.
    const uint64_t num_nodes = engine_.model().numNodes();
    if (!r.u8(op)) {
        resp.u8(kBadRequest);
        (void)writeFrameFd(fd, resp.buffer());
        return false;
    }
    switch (op) {
      case kOpEmbed: {
        uint64_t n = 0;
        std::vector<NodeId> nodes;
        bool ok = r.u64(n) && n > 0;
        // Cap by payload size so a corrupt count cannot OOM us.
        ok = ok && n <= r.remaining() / sizeof(uint64_t);
        if (ok) {
            nodes.reserve(n);
            for (uint64_t i = 0; ok && i < n; ++i) {
                uint64_t id = 0;
                ok = r.u64(id) && id < num_nodes;
                nodes.push_back(static_cast<NodeId>(id));
            }
        }
        if (!ok || !r.atEnd()) {
            resp.u8(kBadRequest);
            return writeFrameFd(fd, resp.buffer());
        }
        const Tensor emb = reader.embed(nodes);
        const auto snap = reader.current();
        resp.u8(kOk);
        resp.u64(snap->version);
        resp.u64(snap->appliedEvents);
        resp.u64(n);
        resp.u64(emb.cols());
        resp.bytes(emb.data(), emb.size() * sizeof(float));
        served_.fetch_add(1);
        return writeFrameFd(fd, resp.buffer());
      }
      case kOpScore: {
        uint64_t n = 0;
        std::vector<NodeId> srcs, dsts;
        bool ok = r.u64(n) && n > 0;
        ok = ok && n <= r.remaining() / (2 * sizeof(uint64_t));
        if (ok) {
            srcs.reserve(n);
            dsts.reserve(n);
            for (uint64_t i = 0; ok && i < n; ++i) {
                uint64_t s = 0, d = 0;
                ok = r.u64(s) && r.u64(d) && s < num_nodes && d < num_nodes;
                srcs.push_back(static_cast<NodeId>(s));
                dsts.push_back(static_cast<NodeId>(d));
            }
        }
        if (!ok || !r.atEnd()) {
            resp.u8(kBadRequest);
            return writeFrameFd(fd, resp.buffer());
        }
        const Tensor logits = reader.scoreLinks(srcs, dsts);
        const auto snap = reader.current();
        resp.u8(kOk);
        resp.u64(snap->version);
        resp.u64(snap->appliedEvents);
        resp.u64(n);
        resp.bytes(logits.data(), logits.size() * sizeof(float));
        served_.fetch_add(1);
        return writeFrameFd(fd, resp.buffer());
      }
      case kOpStats: {
        const auto snap = engine_.snapshot();
        resp.u8(kOk);
        resp.u64(snap->version);
        resp.u64(snap->appliedEvents);
        resp.u64(engine_.data().size() - snap->appliedEvents);
        resp.f64(snap->lastTs);
        served_.fetch_add(1);
        return writeFrameFd(fd, resp.buffer());
      }
      case kOpShutdown: {
        resp.u8(kOk);
        const bool sent = writeFrameFd(fd, resp.buffer());
        (void)sent;
        served_.fetch_add(1);
        stopping_.store(true);
        return false;
      }
      default: {
        resp.u8(kBadRequest);
        (void)writeFrameFd(fd, resp.buffer());
        return false;
      }
    }
}

// --- client ---------------------------------------------------------

ServeClient::~ServeClient()
{
    close();
}

bool
ServeClient::connect(const std::string &socket_path)
{
    close();
    sockaddr_un addr;
    if (!unixAddress(socket_path, addr))
        return false;
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0)
        return false;
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        close();
        return false;
    }
    return true;
}

void
ServeClient::close()
{
    if (fd_ >= 0) {
        if (::close(fd_) != 0)
            CASCADE_LOG("serve client: close failed: %s",
                        std::strerror(errno));
        fd_ = -1;
    }
}

bool
ServeClient::roundTrip(const std::string &req, std::string &resp)
{
    if (fd_ < 0)
        return false;
    if (!writeFrameFd(fd_, req) ||
        readFrameFd(fd_, resp, timeoutMs) != FrameStatus::Ok) {
        close();
        return false;
    }
    return true;
}

bool
ServeClient::embed(const std::vector<NodeId> &nodes, EmbedResult &out)
{
    ByteWriter w;
    w.u8(kOpEmbed);
    w.u64(nodes.size());
    for (NodeId n : nodes)
        w.u64(static_cast<uint64_t>(n));
    std::string resp;
    if (!roundTrip(w.buffer(), resp))
        return false;
    ByteReader r(resp);
    uint8_t status = 0;
    uint64_t n = 0, dim = 0;
    if (!r.u8(status) || status != kOk || !r.u64(out.version) ||
        !r.u64(out.appliedEvents) || !r.u64(n) || !r.u64(dim) ||
        n != nodes.size() ||
        r.remaining() != n * dim * sizeof(float))
        return false;
    out.dim = dim;
    out.rows.resize(n * dim);
    return r.bytes(out.rows.data(), out.rows.size() * sizeof(float));
}

bool
ServeClient::score(const std::vector<NodeId> &srcs,
                   const std::vector<NodeId> &dsts, ScoreResult &out)
{
    if (srcs.size() != dsts.size())
        return false;
    ByteWriter w;
    w.u8(kOpScore);
    w.u64(srcs.size());
    for (size_t i = 0; i < srcs.size(); ++i) {
        w.u64(static_cast<uint64_t>(srcs[i]));
        w.u64(static_cast<uint64_t>(dsts[i]));
    }
    std::string resp;
    if (!roundTrip(w.buffer(), resp))
        return false;
    ByteReader r(resp);
    uint8_t status = 0;
    uint64_t n = 0;
    if (!r.u8(status) || status != kOk || !r.u64(out.version) ||
        !r.u64(out.appliedEvents) || !r.u64(n) ||
        n != srcs.size() || r.remaining() != n * sizeof(float))
        return false;
    out.logits.resize(n);
    return r.bytes(out.logits.data(), n * sizeof(float));
}

bool
ServeClient::stats(Stats &out)
{
    ByteWriter w;
    w.u8(kOpStats);
    std::string resp;
    if (!roundTrip(w.buffer(), resp))
        return false;
    ByteReader r(resp);
    uint8_t status = 0;
    return r.u8(status) && status == kOk && r.u64(out.version) &&
           r.u64(out.appliedEvents) && r.u64(out.pendingEvents) &&
           r.f64(out.lastTs) && r.atEnd();
}

bool
ServeClient::shutdownServer()
{
    ByteWriter w;
    w.u8(kOpShutdown);
    std::string resp;
    if (!roundTrip(w.buffer(), resp))
        return false;
    ByteReader r(resp);
    uint8_t status = 0;
    return r.u8(status) && status == kOk;
}

} // namespace cascade
