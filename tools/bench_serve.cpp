/**
 * @file
 * Serving-path benchmark (README "Benchmarking the serve path").
 *
 * Drives the in-process serve engine (serve/engine.hh) the way
 * cascade_serve's socket threads do — N reader threads answering
 * embedding and link-score queries through the engine's one model on
 * the snapshot each query pins, while a single writer applies the
 * live suffix window by window — and
 * measures client-observed latency exactly (every query timed, p50/p99
 * from the sorted sample set, no bucketing error).
 *
 * Two gates run before timing:
 *
 *  - exact_match: a reader's embed/scoreLinks answers must be
 *    byte-identical to offline TgnnModel::embedNodes/scoreLinks on a
 *    fresh replica holding the same snapshot — the serve path adds no
 *    approximation;
 *  - in full mode, aggregate throughput must reach MIN_QPS and p99
 *    must stay under P99_BUDGET_MS (recorded in the JSON).
 *
 * Results are written as BENCH_serve.json (schema
 * cascade.bench_serve.v2) with the same environment block as
 * BENCH_hotpath.json; `--smoke` shrinks the dataset and query count
 * to a seconds-long CI run and skips the throughput gate (shared CI
 * runners are too noisy to gate on).
 *
 * Usage: bench_serve [--smoke] [--out PATH]
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.hh"
#include "graph/dataset.hh"
#include "serve/engine.hh"
#include "tgnn/serialize.hh"
#include "util/parallel.hh"
#include "util/timer.hh"

using namespace cascade;

namespace {

constexpr double kMinQps = 10000.0;
constexpr double kP99BudgetMs = 5.0;

/** Exact quantile over the full sorted sample set (nearest-rank). */
double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    return sorted[static_cast<size_t>(pos + 0.5)];
}

/** Byte-level equality of two tensors (bit-identical floats). */
bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_serve.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_serve [--smoke] [--out PATH]\n");
            return 2;
        }
    }

    // Read before any thread exists: it forks.
    const std::string env = bench::envJson();

    // Fixed configuration, NOT env-driven: reproducibility.
    const double scale = smoke ? 400.0 : 50.0;
    const size_t dim = 16;
    const uint64_t seed = 42;
    // Readers scale with the hardware (floor 2 so the concurrent
    // reader/writer property is always exercised, cap 4 so a wide CI
    // box does not turn the run into a scheduler benchmark).
    const size_t reader_threads = std::max<size_t>(
        2, std::min<size_t>(4, std::thread::hardware_concurrency()));
    const size_t queries_per_thread = smoke ? 1000 : 20000;
    const size_t query_batch = 4; ///< nodes (or pairs) per query
    const size_t window = 256;    ///< writer window grain

    // Serving concurrency comes from reader threads, not intra-query
    // kernel parallelism: per-query tensors are tiny, so fork/join
    // dispatch only adds latency and cross-thread contention. Run the
    // kernels inline, one lane per reader.
    ThreadPool::setGlobalThreads(1);

    DatasetSpec spec = wikiSpec(scale);
    Rng rng(seed);
    EventSequence data = generateDataset(spec, rng);
    VectorEventSource src(data);
    TemporalAdjacency adj(data);
    const size_t num_nodes = std::max(spec.numNodes, src.numNodes());

    TgnnModel model(tgnConfig(dim), num_nodes, src.featDim(),
                    seed + 1);
    ServeEngine engine(model, src, adj, 0);
    const size_t prefix = src.size() * 4 / 5;
    engine.applyEvents(prefix, window);

    // --- Gate 1: serve answers == offline compute, byte for byte ---
    std::vector<NodeId> probe, probe_dst;
    for (size_t i = 0; i < query_batch; ++i) {
        probe.push_back(static_cast<NodeId>((i * 37) % num_nodes));
        probe_dst.push_back(
            static_cast<NodeId>((i * 53 + 11) % num_nodes));
    }
    bool exact = true;
    {
        ServeReader reader(engine);
        const Tensor served_emb = reader.embed(probe);
        const Tensor served_score =
            reader.scoreLinks(probe, probe_dst);

        const auto snap = engine.snapshot();
        TgnnModel offline(model.config(), model.numNodes(),
                          model.edgeFeatDim(), model.seed());
        ByteWriter w;
        writeParametersBlob(w, model.parameters());
        ByteReader r(w.buffer());
        if (!readParametersBlob(r, offline.parameters())) {
            std::fprintf(stderr, "bench_serve: parameter clone "
                                 "failed\n");
            return 1;
        }
        offline.restoreState(snap->state);
        const EventIdx before =
            static_cast<EventIdx>(snap->appliedEvents);
        const Tensor off_emb =
            offline.embedNodes(probe, snap->lastTs, src, adj, before);
        const Tensor off_score = offline.scoreLinks(
            probe, probe_dst, snap->lastTs, src, adj, before);
        exact = bitEqual(served_emb, off_emb) &&
                bitEqual(served_score, off_score);
    }
    if (!exact) {
        std::fprintf(stderr, "FAIL: serve answers diverge from "
                             "offline embedNodes/scoreLinks\n");
        return 1;
    }
    std::printf("exact_match: serve == offline (byte-identical)\n");

    // --- Throughput: N readers querying while the writer applies ---
    std::atomic<bool> writer_stop{false};
    std::atomic<size_t> writer_windows{0};
    std::thread writer([&] {
        while (!writer_stop.load()) {
            if (engine.pendingEvents() > 0) {
                engine.applyEvents(window, window);
                writer_windows.fetch_add(1);
            } else {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
        }
    });

    std::vector<std::vector<double>> lat(reader_threads);
    std::vector<std::thread> readers;
    Timer wall;
    for (size_t t = 0; t < reader_threads; ++t) {
        readers.emplace_back([&, t] {
            ServeReader reader(engine);
            std::vector<NodeId> nodes(query_batch), dsts(query_batch);
            lat[t].reserve(queries_per_thread);
            for (size_t q = 0; q < queries_per_thread; ++q) {
                for (size_t i = 0; i < query_batch; ++i) {
                    nodes[i] = static_cast<NodeId>(
                        (t * 7919 + q * 31 + i * 37) % num_nodes);
                    dsts[i] = static_cast<NodeId>(
                        (t * 104729 + q * 53 + i * 11) % num_nodes);
                }
                Timer qt;
                if (q % 2 == 0)
                    reader.embed(nodes);
                else
                    reader.scoreLinks(nodes, dsts);
                lat[t].push_back(qt.seconds());
            }
        });
    }
    for (std::thread &th : readers)
        th.join();
    const double wall_s = wall.seconds();
    writer_stop.store(true);
    writer.join();

    std::vector<double> all;
    all.reserve(reader_threads * queries_per_thread);
    for (const auto &v : lat)
        all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    const size_t total_queries = all.size();
    const double qps =
        wall_s > 0.0 ? static_cast<double>(total_queries) / wall_s
                     : 0.0;
    const double p50_ms = quantile(all, 0.50) * 1e3;
    const double p99_ms = quantile(all, 0.99) * 1e3;

    std::printf("serve bench: %zu queries, %zu reader threads, "
                "%.3fs -> %.0f qps, p50=%.3fms p99=%.3fms "
                "(writer windows applied: %zu, snapshots: %zu)\n",
                total_queries, reader_threads, wall_s, qps, p50_ms,
                p99_ms, writer_windows.load(),
                static_cast<size_t>(engine.snapshot()->version));

    // --- Gate 2 (full mode only; smoke runners are too noisy) ---
    if (!smoke && qps < kMinQps) {
        std::fprintf(stderr,
                     "FAIL: %.0f qps is below the %.0f floor\n", qps,
                     kMinQps);
        return 1;
    }
    if (!smoke && p99_ms > kP99BudgetMs) {
        std::fprintf(stderr,
                     "FAIL: p99 %.3f ms exceeds the %.1f ms budget\n",
                     p99_ms, kP99BudgetMs);
        return 1;
    }

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench_serve: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"cascade.bench_serve.v2\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f,
                 "  \"dataset\": \"WIKI\", \"model\": \"TGN\", "
                 "\"dim\": %zu, \"seed\": %llu,\n",
                 dim, static_cast<unsigned long long>(seed));
    std::fprintf(f, "  \"env\": %s,\n", env.c_str());
    std::fprintf(f,
                 "  \"events\": %zu, \"prefix\": %zu, "
                 "\"writer_window\": %zu, \"writer_windows\": %zu, "
                 "\"snapshots\": %zu,\n",
                 src.size(), prefix, window, writer_windows.load(),
                 static_cast<size_t>(engine.snapshot()->version));
    std::fprintf(f,
                 "  \"reader_threads\": %zu, \"query_batch\": %zu, "
                 "\"queries\": %zu, \"wall_seconds\": %.4f,\n",
                 reader_threads, query_batch, total_queries, wall_s);
    std::fprintf(f,
                 "  \"qps\": %.1f, \"p50_ms\": %.4f, "
                 "\"p99_ms\": %.4f, \"min_qps_gate\": %.1f, "
                 "\"p99_budget_ms\": %.1f,\n",
                 qps, p50_ms, p99_ms, kMinQps, kP99BudgetMs);
    std::fprintf(f, "  \"exact_match\": true\n}\n");
    if (std::fclose(f) != 0) {
        std::fprintf(stderr, "close failed: %s\n", out_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
