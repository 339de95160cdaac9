/**
 * @file
 * Online serving driver (DESIGN.md §14).
 *
 * Loads a trained model (--load, from cascade_train --save), replays
 * the stream prefix up to --train-frac through
 * TgnnModel::advanceState to rebuild the serving memory/mailbox, then
 * exposes the model over a unix-domain socket
 * (serve/server.hh protocol v1): embedding queries, link-prediction
 * queries and a stats op. The remaining stream suffix plays the role
 * of the live feed — the main thread is the single writer, applying
 * --window events every --apply-interval-ms and publishing a fresh
 * snapshot after each window, while --reader-threads answer queries
 * through the same model on the newest snapshot each query pins.
 *
 * The event stream comes from the same EventSource abstraction as
 * training: an in-memory generated dataset by default, or an mmap'd
 * CEVL log with --eventlog (out-of-core; applied pages are dropped
 * behind the writer's window).
 *
 * The server runs until a client sends the shutdown op
 * (ServeClient::shutdownServer). On exit it prints a summary line and
 * optionally dumps the metrics registry — including the
 * serve.embed.seconds / serve.score.seconds latency histograms — as
 * JSON (--metrics-out).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "cli.hh"
#include "graph/dataset.hh"
#include "obs/metrics.hh"
#include "serve/server.hh"
#include "tgnn/model.hh"
#include "tgnn/serialize.hh"
#include "util/logging.hh"

using namespace cascade;

namespace {

struct CliOptions
{
    std::string dataset = "wiki";
    std::string model = "tgn";
    double scale = 50.0;
    size_t dim = 32;
    uint64_t seed = 42;
    std::string eventlogPath;  ///< serve out-of-core from this log
    std::string loadPath;      ///< trained parameters (--save output)
    double trainFrac = 0.85;   ///< prefix replayed before serving
    std::string socketPath = "/tmp/cascade_serve.sock";
    size_t readerThreads = 2;
    size_t window = 256;       ///< events applied per writer window
    size_t applyIntervalMs = 50;
    std::string metricsOut;
    bool smoke = false; ///< self-test: in-process client, then exit
};

void
declareFlags(cli::FlagSet &flags, CliOptions &o)
{
    flags.flagString("--dataset", &o.dataset, "D",
                     "wiki|reddit|mooc|wikitalk|sxfull|gdelt|mag");
    flags.flagString("--model", &o.model, "M",
                     "jodie|tgn|apan|dysat|tgat");
    flags.flagDouble("--scale", &o.scale, "S",
                     "dataset scale divisor (1 = paper scale)");
    flags.flagInt("--dim", &o.dim, "N", "model hidden dimension");
    flags.flagInt("--seed", &o.seed, "N", "master RNG seed");
    flags.flagString("--eventlog", &o.eventlogPath, "FILE",
                     "serve out-of-core from a CEVL event log");
    flags.flagString("--load", &o.loadPath, "FILE",
                     "trained model parameters (cascade_train --save)");
    flags.flagDouble("--train-frac", &o.trainFrac, "F",
                     "stream prefix replayed before serving");
    flags.flagString("--socket", &o.socketPath, "PATH",
                     "unix-domain socket to listen on");
    flags.flagInt("--reader-threads", &o.readerThreads, "N",
                  "query threads (each answers on the newest snapshot)");
    flags.flagInt("--window", &o.window, "N",
                  "live events applied per writer window");
    flags.flagInt("--apply-interval-ms", &o.applyIntervalMs, "MS",
                  "writer pause between windows");
    flags.flagString("--metrics-out", &o.metricsOut, "FILE",
                     "dump the metrics registry as JSON");
    flags.flagBool("--smoke", &o.smoke,
                   "serve, round-trip an in-process client over the "
                   "socket, shut down, exit");
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opts;
    cli::FlagSet flags("cascade_serve",
                       "serve a trained model's embeddings and link "
                       "scores over a unix socket");
    declareFlags(flags, opts);
    switch (flags.parse(argc, argv)) {
      case cli::ParseResult::Help: return 0;
      case cli::ParseResult::Error: return 2;
      case cli::ParseResult::Ok: break;
    }
    if (opts.trainFrac < 0.0 || opts.trainFrac > 1.0) {
        std::fprintf(stderr, "--train-frac must be in [0, 1]\n");
        return 2;
    }
    if (opts.window == 0) {
        std::fprintf(stderr, "--window must be >= 1\n");
        return 2;
    }

    DatasetSpec spec = cli::specByName(opts.dataset, opts.scale);

    EventSequence data;
    std::unique_ptr<VectorEventSource> vec_src;
    std::unique_ptr<EventSource> log_src;
    const EventSource *src = nullptr;
    if (!opts.eventlogPath.empty()) {
        std::string err;
        log_src = Dataset::open(opts.eventlogPath,
                                Dataset::Format::EventLog, &err);
        if (!log_src) {
            std::fprintf(stderr, "cannot open event log %s: %s\n",
                         opts.eventlogPath.c_str(), err.c_str());
            return 1;
        }
        src = log_src.get();
    } else {
        Rng rng(opts.seed);
        data = generateDataset(spec, rng);
        vec_src = std::make_unique<VectorEventSource>(data);
        src = vec_src.get();
    }
    TemporalAdjacency adj(*src);
    const size_t num_nodes = std::max(spec.numNodes, src->numNodes());

    ModelConfig mc = cli::modelByCliName(opts.model, opts.dim);
    TgnnModel model(mc, num_nodes, src->featDim(), opts.seed + 1);
    if (!opts.loadPath.empty() &&
        !loadModel(model, opts.loadPath)) {
        std::fprintf(stderr, "cannot load model from %s\n",
                     opts.loadPath.c_str());
        return 1;
    }

    // Rebuild the serving memory/mailbox by replaying the trained
    // prefix — bit-identical to the state a training run left behind
    // at the same boundaries.
    const size_t prefix = static_cast<size_t>(
        static_cast<double>(src->size()) * opts.trainFrac);
    obs::MetricsRegistry metrics;
    ServeEngine engine(model, *src, adj, 0, &metrics);
    if (prefix > 0)
        engine.applyEvents(prefix, opts.window);
    std::fprintf(stderr,
                 "cascade_serve: replayed %zu/%zu events, "
                 "%zu pending\n",
                 engine.appliedEvents(), src->size(),
                 engine.pendingEvents());

    ServeServerOptions sopts;
    sopts.socketPath = opts.socketPath;
    sopts.readerThreads =
        opts.readerThreads ? opts.readerThreads : 1;
    ServeSocketServer server(engine, sopts);
    if (!server.start()) {
        std::fprintf(stderr, "cannot listen on %s\n",
                     opts.socketPath.c_str());
        return 1;
    }
    std::fprintf(stderr, "cascade_serve: listening on %s "
                         "(%zu reader threads)\n",
                 opts.socketPath.c_str(), sopts.readerThreads);

    // Smoke mode: a real client on a second thread exercises the full
    // socket protocol — stats, embed, score — then requests shutdown,
    // which ends the writer loop below like any external client would.
    std::thread smoke_client;
    std::atomic<bool> smoke_ok{true};
    if (opts.smoke) {
        smoke_client = std::thread([&] {
            ServeClient c;
            bool ok = c.connect(opts.socketPath);
            ServeClient::Stats st;
            ok = ok && c.stats(st);
            const size_t nn = src->numNodes();
            std::vector<NodeId> nodes, dsts;
            for (size_t i = 0; i < 4; ++i) {
                nodes.push_back(static_cast<NodeId>((i * 37) % nn));
                dsts.push_back(
                    static_cast<NodeId>((i * 53 + 7) % nn));
            }
            ServeClient::EmbedResult emb;
            ok = ok && c.embed(nodes, emb) && emb.dim > 0;
            ServeClient::ScoreResult score;
            ok = ok && c.score(nodes, dsts, score) &&
                 score.logits.size() == nodes.size();
            ok = ok && c.shutdownServer();
            if (!ok)
                smoke_ok.store(false);
        });
    }

    // Single-writer loop: feed the pending suffix into the live state
    // one window at a time until a client asks us to shut down.
    while (server.running()) {
        if (engine.pendingEvents() > 0)
            engine.applyEvents(opts.window, opts.window);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts.applyIntervalMs));
    }
    server.stop();
    if (smoke_client.joinable())
        smoke_client.join();
    if (opts.smoke && !smoke_ok.load()) {
        std::fprintf(stderr, "cascade_serve: smoke client failed\n");
        return 1;
    }

    if (!opts.metricsOut.empty()) {
        obs::JsonFileSink sink(opts.metricsOut);
        if (!sink.write(metrics)) {
            std::fprintf(stderr, "cannot write metrics to %s\n",
                         opts.metricsOut.c_str());
            return 1;
        }
    }

    std::printf("serve dataset=%s model=%s events=%zu applied=%zu "
                "snapshots=%zu requests=%zu out_of_core=%d "
                "rss_peak_mb=%.1f\n",
                opts.dataset.c_str(), opts.model.c_str(), src->size(),
                engine.appliedEvents(),
                static_cast<size_t>(engine.snapshot()->version),
                static_cast<size_t>(server.requestsServed()),
                src->resident() ? 0 : 1, cli::peakRssMb());
    return 0;
}
