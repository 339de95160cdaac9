/**
 * @file
 * Unix-domain socket front end for the serve engine (DESIGN.md §14).
 *
 * Transport: the CRC-framed message layer the sharded trainer already
 * uses (util/binio.hh writeFrameFd/readFrameFd) over an AF_UNIX
 * SOCK_STREAM socket — torn or corrupt frames fail loudly instead of
 * desynchronizing the stream, and a died peer surfaces as a clean
 * EOF.
 *
 * Protocol v1 (all integers little-endian via ByteWriter):
 *
 *   request  := u8 op, body
 *     op 1 (embed): u64 n, n x u64 node
 *     op 2 (score): u64 n, n x (u64 src, u64 dst)
 *     op 3 (stats): empty
 *     op 4 (shutdown): empty — stops the server after replying
 *   response := u8 status (0 = ok, 1 = bad request), body
 *     embed ok: u64 version, u64 applied, u64 n, u64 dim,
 *               (n*dim) x f32 row-major
 *     score ok: u64 version, u64 applied, u64 n, n x f32 logits
 *     stats ok: u64 version, u64 applied, u64 pending, f64 lastTs
 *     shutdown ok: empty
 *
 * A malformed body, or an embed/score request naming a node id >=
 * the model's numNodes(), gets status 1 and the connection stays
 * open.
 *
 * Each reader thread owns a ServeReader (the snapshot it last
 * pinned). Readers answer through the engine's model, reading only
 * its parameters and the pinned snapshot, so concurrent connections
 * never contend on model state; one connection's requests are
 * answered in order against snapshots no older than the engine's at
 * request time.
 */

#ifndef CASCADE_SERVE_SERVER_HH
#define CASCADE_SERVE_SERVER_HH

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "serve/engine.hh"

namespace cascade {

struct ServeServerOptions
{
    std::string socketPath;
    /** Reader threads; each owns a ServeReader. */
    size_t readerThreads = 2;
    /** Per-read frame deadline AND idle-connection deadline (ms): a
     *  client that sends nothing this long is disconnected so its
     *  reader thread can serve someone else. Negative = no limit. */
    int requestTimeoutMs = 10000;
};

/** Accept loop + reader-thread pool over one ServeEngine. */
class ServeSocketServer
{
  public:
    ServeSocketServer(ServeEngine &engine, ServeServerOptions opts);
    ~ServeSocketServer();

    ServeSocketServer(const ServeSocketServer &) = delete;
    ServeSocketServer &operator=(const ServeSocketServer &) = delete;

    /** Bind, listen and spawn the reader threads.
     *  @return false on socket setup failure (logged) */
    bool start();

    /** Stop accepting, wake the readers and join them. Idempotent. */
    void stop();

    /** True between a successful start() and stop(); turns false as
     *  soon as a client's shutdown request is accepted. */
    bool
    running() const
    {
        return running_.load() && !stopping_.load();
    }

    /** Queries answered since start (all ops, all threads). */
    uint64_t requestsServed() const { return served_.load(); }

  private:
    void readerMain(size_t idx);
    /** Handle one connected client until EOF/shutdown/error. */
    void serveConnection(int fd, ServeReader &reader);
    /** Decode + answer one request. @return false to stop serving
     *  this connection */
    bool handleRequest(int fd, const std::string &req,
                       ServeReader &reader);

    ServeEngine &engine_;
    ServeServerOptions opts_;
    int listenFd_ = -1;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<uint64_t> served_{0};
    std::vector<std::thread> readers_;
};

/**
 * Blocking protocol-v1 client (tests, benchmarks, smoke scripts).
 * Not thread-safe; one per thread.
 *
 * embed, score and stats return false in two cases, which
 * connected() tells apart: the server refused the request (the
 * connection stays open and answers the next request), or the link
 * failed (the client has closed its end and connected() is false).
 */
class ServeClient
{
  public:
    ServeClient() = default;
    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /** Connect to a server's unix socket. */
    bool connect(const std::string &socket_path);
    void close();
    bool connected() const { return fd_ >= 0; }

    struct EmbedResult
    {
        uint64_t version = 0;
        uint64_t appliedEvents = 0;
        size_t dim = 0;
        std::vector<float> rows; ///< n x dim row-major
    };
    bool embed(const std::vector<NodeId> &nodes, EmbedResult &out);

    struct ScoreResult
    {
        uint64_t version = 0;
        uint64_t appliedEvents = 0;
        std::vector<float> logits;
    };
    bool score(const std::vector<NodeId> &srcs,
               const std::vector<NodeId> &dsts, ScoreResult &out);

    struct Stats
    {
        uint64_t version = 0;
        uint64_t appliedEvents = 0;
        uint64_t pendingEvents = 0;
        double lastTs = 0.0;
    };
    bool stats(Stats &out);

    /** Ask the server to stop (it replies, then shuts down). */
    bool shutdownServer();

    /** Per-response read deadline (ms, -1 blocks). */
    int timeoutMs = 30000;

  private:
    bool roundTrip(const std::string &req, std::string &resp);

    int fd_ = -1;
};

} // namespace cascade

#endif // CASCADE_SERVE_SERVER_HH
