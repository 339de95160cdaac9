/**
 * @file
 * perfbench — the end-to-end benchmark program (see README.md).
 *
 *   perfbench gen --workload W --seed N --out FILE [--smoke]
 *       Generate the workload's events from the seed and write them
 *       with Dataset::saveBinary. Prints {"events","bytes","crc32"}.
 *
 *   perfbench run --workload W --input FILE --seed N [--seconds S]
 *                 [--trace 0|1] [--smoke] [--expect-crc HEX]
 *                 [--perturb none|loss|answer] [--spans-out FILE]
 *       Measure one run: three identical cycles of set-up, one
 *       training epoch and validation (fixed work), the first also
 *       serving for at least S seconds. Print one JSON report line:
 *       gates, metrics, counts and the environment. Exit 0 iff every
 *       correctness gate passed. --perturb loss nudges one loss of a
 *       repeated (or traced) epoch, --perturb answer one served answer.
 *
 * --trace 0 gives the end-to-end metrics; --trace 1 gives the
 * per-layer metrics from a traced loop and also runs the untraced
 * session it must reproduce bit for bit.
 */

#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "build_info.hh"
#include "util/binio.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "workload.hh"

using namespace perfbench;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/**
 * Set-up → epoch → validation cycles per untraced run. setup_s and the
 * validation throughput use the median; training counts each segment
 * at its fastest cycle; every cycle must give the same loss bits.
 */
constexpr size_t kCycles = 3;
/** trace.coverage below this fails the traced run. */
constexpr double kMinCoverage = 0.95;

/** Flat JSON object writer. */
class Json
{
  public:
    Json &
    num(const std::string &k, double v)
    {
        char buf[64];
        if (std::isfinite(v))
            std::snprintf(buf, sizeof buf, "%.17g", v);
        else
            std::snprintf(buf, sizeof buf, "null");
        return raw(k, buf);
    }
    Json &
    count(const std::string &k, uint64_t v)
    {
        return raw(k, std::to_string(v));
    }
    Json &
    flag(const std::string &k, bool v)
    {
        return raw(k, v ? "true" : "false");
    }
    Json &
    str(const std::string &k, const std::string &v)
    {
        std::string q = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                q += '\\';
            if (static_cast<unsigned char>(c) >= 0x20)
                q += c;
        }
        return raw(k, q + "\"");
    }
    Json &
    raw(const std::string &k, const std::string &v)
    {
        body_ += (body_.empty() ? "\"" : ",\"") + k + "\":" + v;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
hex32(uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", v);
    return buf;
}

uint64_t
bitsOf(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/**
 * CRC-32 of a saved dataset's payload: every byte before the 4-byte
 * CRC trailer Dataset::saveBinary appends (over the whole file the
 * CRC is the constant residue). Read in 1 MiB blocks so peak RSS
 * stays flat.
 */
uint32_t
fileCrc(const std::string &path, uint64_t *bytes)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in || in.tellg() < 4)
        throw std::runtime_error("cannot read " + path);
    *bytes = static_cast<uint64_t>(in.tellg());
    in.seekg(0);
    std::vector<char> buf(1 << 20);
    uint32_t crc = 0;
    for (uint64_t left = *bytes - 4; left > 0;) {
        const size_t want =
            static_cast<size_t>(std::min<uint64_t>(left, buf.size()));
        if (!in.read(buf.data(), static_cast<std::streamsize>(want)))
            throw std::runtime_error("short read of " + path);
        crc = cascade::crc32(buf.data(), want, crc);
        left -= want;
    }
    return crc;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

size_t
nproc()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<size_t>(n) : 1;
}

/** `--key value` pairs after the sub-command. */
std::map<std::string, std::string>
parseArgs(int argc, char **argv)
{
    std::map<std::string, std::string> a;
    for (int i = 2; i < argc; ++i) {
        const std::string k = argv[i];
        if (k.rfind("--", 0) != 0)
            throw std::runtime_error("unexpected argument " + k);
        if (k == "--smoke") {
            a[k] = "1";
        } else if (i + 1 < argc) {
            a[k] = argv[++i];
        } else {
            throw std::runtime_error(k + " needs a value");
        }
    }
    return a;
}

std::string
need(const std::map<std::string, std::string> &a, const std::string &k)
{
    auto it = a.find(k);
    if (it == a.end())
        throw std::runtime_error("missing " + k);
    return it->second;
}

std::string
opt(const std::map<std::string, std::string> &a, const std::string &k,
    const std::string &dflt)
{
    auto it = a.find(k);
    return it == a.end() ? dflt : it->second;
}

uint64_t
toU64(const std::string &s)
{
    size_t used = 0;
    const unsigned long long v = std::stoull(s, &used);
    if (used != s.size())
        throw std::runtime_error("not a whole number: " + s);
    return v;
}

const WorkloadDef &
workloadArg(const std::map<std::string, std::string> &a)
{
    const std::string name = need(a, "--workload");
    const WorkloadDef *w = findWorkload(name);
    if (!w)
        throw std::runtime_error("unknown workload " + name);
    return *w;
}

int
cmdGen(const std::map<std::string, std::string> &a)
{
    const WorkloadDef &w = workloadArg(a);
    const uint64_t seed = toU64(need(a, "--seed"));
    const std::string out = need(a, "--out");
    const cascade::DatasetSpec spec = specFor(w, a.count("--smoke") > 0);
    cascade::Rng rng(seed);
    const cascade::EventSequence seq = cascade::generateDataset(spec, rng);
    if (!cascade::Dataset::saveBinary(seq, out))
        throw std::runtime_error("cannot write " + out);
    uint64_t bytes = 0;
    const uint32_t crc = fileCrc(out, &bytes);
    std::printf("%s\n", Json()
                            .count("events", seq.size())
                            .count("bytes", bytes)
                            .str("crc32", hex32(crc))
                            .text()
                            .c_str());
    return 0;
}

/** Admitted batches tile [0, train_end) in order. */
bool
tilesTrainRange(const std::vector<LossRecord> &b, size_t train_end)
{
    size_t at = 0;
    for (const LossRecord &r : b) {
        if (r.st != at || r.ed <= r.st || !std::isfinite(r.loss))
            return false;
        at = r.ed;
    }
    return at == train_end;
}

/** Batches whose (range, loss bits) differ between two runs. */
size_t
trajectoryMismatches(const std::vector<LossRecord> &ref,
                     const std::vector<LossRecord> &got)
{
    size_t bad = ref.size() > got.size() ? ref.size() - got.size()
                                         : got.size() - ref.size();
    for (size_t i = 0; i < std::min(ref.size(), got.size()); ++i)
        if (ref[i].st != got[i].st || ref[i].ed != got[i].ed ||
            bitsOf(ref[i].loss) != bitsOf(got[i].loss))
            ++bad;
    return bad;
}

/**
 * Hand the heap's free pages back to the kernel, so a repeated cycle
 * faults its memory in again like the first one in a fresh process.
 */
void
releaseFreeMemory()
{
#ifdef __GLIBC__
    malloc_trim(0);
#endif
}

std::vector<double>
concat(const std::vector<double> &a, const std::vector<double> &b)
{
    std::vector<double> out = a;
    out.insert(out.end(), b.begin(), b.end());
    return out;
}

int
cmdRun(const std::map<std::string, std::string> &a)
{
    const WorkloadDef &w = workloadArg(a);
    const std::string input = need(a, "--input");
    const uint64_t seed = toU64(need(a, "--seed"));
    const double seconds =
        static_cast<double>(toU64(opt(a, "--seconds", "10")));
    const bool traced = opt(a, "--trace", "0") == "1";
    const bool smoke = a.count("--smoke") > 0;
    const std::string perturb = opt(a, "--perturb", "none");
    if (perturb != "none" && perturb != "answer" && perturb != "loss")
        throw std::runtime_error("--perturb: none|loss|answer");
    cascade::ThreadPool::setGlobalThreads(std::min(kThreads, nproc()));
    const cascade::DatasetSpec spec = specFor(w, smoke);

    Json gates, metrics, counts;
    size_t attempted = 0, failed = 0;
    auto gate = [&](const char *name, bool ok) {
        gates.flag(name, ok);
        if (!ok)
            ++failed;
    };

    // Outside every clock: the bytes measured are the bytes generated.
    uint64_t input_bytes = 0;
    const uint32_t crc = fileCrc(input, &input_bytes);
    const std::string want_crc = opt(a, "--expect-crc", "");
    gate("input_crc", want_crc.empty() || want_crc == hex32(crc));

    size_t events = 0, train_end = 0;
    if (!traced) {
        // kCycles identical cycles of set-up → epoch → validation, each
        // on a stack built afresh from the same input and seeds, so each
        // repeats the same work and must repeat the same loss bits.
        std::vector<double> setups, eval_walls, train_walls;
        std::vector<std::vector<double>> segments;
        TrainResult tr;
        EvalResult ev;
        ServeResult sv;
        size_t mismatched = 0, diverged = 0;
        double peak_rss = 0.0;
        bool eval_repeatable = true;
        for (size_t c = 0; c < kCycles; ++c) {
            if (c > 0)
                releaseFreeMemory();
            const double t0 = nowSeconds();
            std::unique_ptr<Stack> stack =
                buildStack(w, spec, input, seed, nullptr);
            setups.push_back(nowSeconds() - t0);
            events = stack->src->size();
            train_end = stack->trainEnd;

            TrainResult t = trainWithSession(*stack);
            attempted += t.attempted;
            failed += t.rolledBack;
            train_walls.push_back(t.wall);
            segments.push_back(segmentSeconds(t));
            if (c == 0) {
                gate("train_tiles_range",
                     tilesTrainRange(t.batches, train_end));
                tr = std::move(t);
            } else {
                if (perturb == "loss" && t.batches.size() > 1)
                    t.batches[1].loss = std::nextafter(t.batches[1].loss, 1e9);
                diverged += trajectoryMismatches(tr.batches, t.batches);
            }
            // Validation and serving do not need the dependency table;
            // free it before the benchmark's own state copies are made,
            // so those copies cannot set peak_rss_mb.
            stack->batcher.reset();
            std::optional<cascade::TgnnModel::State> start;
            if (c == 0)
                start.emplace(stack->model->saveState());
            const EvalResult e = evalWithModel(*stack);
            eval_repeatable = eval_repeatable &&
                              (c == 0 || bitsOf(e.loss) == bitsOf(ev.loss));
            eval_walls.push_back(e.wall);
            ev = e;
            if (c == 0) {
                // Set-up, training and validation only: serving restarts
                // its engine every pass, and how many passes fit in
                // --seconds depends on the machine.
                peak_rss = peakRssMb();
                sv = serve(*stack, *start, seed, seconds, nullptr);
                mismatched =
                    checkServeAnswers(*stack, *start, sv, perturb == "answer");
                attempted += sv.queries;
                failed += sv.queryErrors + sv.stale + mismatched;
            }
        }
        failed += diverged;
        gate("train_repeats_bit_identical", diverged == 0);
        gate("val_loss_finite", std::isfinite(ev.loss) && ev.loss > 0.0);
        gate("val_loss_repeatable", eval_repeatable);

        // Other tenants only ever slow a segment down, so each segment
        // counts at the fastest of its identical repeats.
        double train_best = 0.0;
        if (diverged == 0)
            for (size_t k = 0; k < segments.front().size(); ++k) {
                double best = segments.front()[k];
                for (const std::vector<double> &seg : segments)
                    best = std::min(best, seg[k]);
                train_best += best;
            }

        const std::vector<double> q_ms =
            concat(sv.firstQueryMs, sv.otherQueryMs);
        std::vector<double> full_windows;
        for (size_t i = 0; i < sv.applySeconds.size(); ++i)
            if (sv.applyEvents[i] == kWindow)
                full_windows.push_back(sv.applySeconds[i]);

        metrics.num("setup_s", quantile(setups, 0.5))
            .num("train_events_per_s",
                 static_cast<double>(tr.events) / train_best)
            .num("peak_rss_mb", peak_rss);
        // Measured but not bounded: on a shared machine their spread
        // across runs nearly fills the largest bound (see README.md).
        counts.num("query_p50_ms", quantile(q_ms, 0.5))
            .num("query_p99_ms", quantile(q_ms, 0.99))
            .num("eval_events_per_s",
                   static_cast<double>(ev.events) / quantile(eval_walls, 0.5))
            .num("ingest_events_per_s",
                 static_cast<double>(kWindow) / quantile(full_windows, 0.5))
            .num("val_loss", ev.loss)
            .count("cycles", kCycles)
            .num("setup_first_s", setups.front())
            .num("train_best_s", train_best)
            .num("train_wall_min_s", quantile(train_walls, 0.0))
            .num("train_wall_median_s", quantile(train_walls, 0.5))
            .num("train_wall_max_s", quantile(train_walls, 1.0))
            .count("train_segments", segments.front().size())
            .num("eval_wall_s", eval_walls.front())
            .num("apply_wall_s", sum(sv.applySeconds))
            .count("train_batches", tr.batches.size())
            .count("batches_diverged", diverged)
            .count("val_events", ev.events)
            .str("val_loss_bits", hex32(static_cast<uint32_t>(
                                      bitsOf(ev.loss) >> 32)) +
                                      hex32(static_cast<uint32_t>(
                                          bitsOf(ev.loss))))
            .count("serve_passes", sv.passes)
            .count("queries", sv.queries)
            .count("live_events", sv.liveEvents)
            .count("answers_checked", sv.samples.size())
            .count("answers_mismatched", mismatched)
            .count("answers_stale", sv.stale);
    } else {
        // The untraced reference the traced loop must reproduce.
        TrainResult ref;
        EvalResult ref_eval;
        {
            std::unique_ptr<Stack> r =
                buildStack(w, spec, input, seed, nullptr);
            ref = trainWithSession(*r);
            ref_eval = evalWithModel(*r);
        }
        attempted += ref.attempted;
        failed += ref.rolledBack;

        Recorder tracer;
        std::unique_ptr<Stack> s = buildStack(w, spec, input, seed, &tracer);
        events = s->src->size();
        train_end = s->trainEnd;
        TrainResult tr = trainTraced(*s, tracer);
        attempted += tr.attempted;
        failed += tr.rolledBack;
        const double stable_ratio = s->batcher->stableUpdateRatio();
        const double table_mb =
            static_cast<double>(s->batcher->stateBytes()) / kMiB;
        s->batcher.reset();

        const cascade::TgnnModel::State start = s->model->saveState();
        EvalResult ev = evalTraced(*s, tracer);
        const ServeResult sv = serve(*s, start, seed, seconds, &tracer);
        const size_t mismatched =
            checkServeAnswers(*s, start, sv, perturb == "answer");
        attempted += sv.queries;
        failed += sv.queryErrors + sv.stale + mismatched;

        if (perturb == "loss" && tr.batches.size() > 1)
            tr.batches[1].loss = std::nextafter(tr.batches[1].loss, 1e9);
        const size_t diverged = trajectoryMismatches(ref.batches, tr.batches);
        failed += diverged;
        gate("val_loss_bit_identical",
             bitsOf(ev.loss) == bitsOf(ref_eval.loss));
        const SpanTree tree(tracer);
        std::string why;
        const bool well_formed = tree.wellFormed(&why);
        if (!well_formed)
            std::fprintf(stderr, "perfbench: span tree: %s\n", why.c_str());
        gate("span_tree", well_formed);
        const double coverage = tree.coverage();
        gate("span_coverage", coverage >= kMinCoverage);
        const std::string spans_out = opt(a, "--spans-out", "");
        if (!spans_out.empty())
            gate("spans_written", tracer.writeJsonFile(spans_out));

        const auto &k0 = tr.kernelsBefore;
        const auto &k1 = tr.kernelsAfter;
        const double gflop =
            static_cast<double>(k1.gemmFlops - k0.gemmFlops) / 1e9;
        const double model_s = tree.total("tgnn.forward") +
                               tree.total("tgnn.backward") +
                               tree.total("tgnn.writeback");
        const double hits = static_cast<double>(k1.poolHits - k0.poolHits);
        const double misses =
            static_cast<double>(k1.poolMisses - k0.poolMisses);
        const double state_mb =
            static_cast<double>(s->model->stateBytes()) / kMiB;

        metrics.num("graph.load_s", tree.total("graph.load"))
            .num("graph.adjacency_s", tree.total("graph.adjacency"))
            .num("tgnn.init_s", tree.total("tgnn.init"))
            .num("core.preprocess_s", tree.total("core.preprocess"))
            .num("core.table_mb", table_mb)
            .num("core.next_s", tree.total("core.next"))
            .num("core.next_p99_ms",
                 quantile(tree.durations("core.next"), 0.99) * 1e3)
            .num("core.feedback_s", tree.total("core.feedback"))
            .count("core.batches", tr.batches.size())
            .num("core.avg_batch_events",
                 static_cast<double>(tr.events) /
                     static_cast<double>(std::max<size_t>(1, tr.batches.size())))
            .num("core.stable_ratio", stable_ratio)
            .num("tgnn.forward_s", tree.total("tgnn.forward"))
            .num("tgnn.backward_s", tree.total("tgnn.backward"))
            .num("tgnn.writeback_s", tree.total("tgnn.writeback"))
            .num("tgnn.eval_s", tree.total("tgnn.eval_batch"))
            .num("tgnn.val_loss", ev.loss)
            .count("tgnn.sampled_neighbors", tr.sampledNeighbors)
            .num("tgnn.state_mb", state_mb)
            .num("tensor.gemm_gflop", gflop)
            .count("tensor.gemm_calls", k1.gemmCalls - k0.gemmCalls)
            .num("tensor.model_gflops_per_s", gflop / model_s)
            .num("tensor.pool_hit_ratio", hits / std::max(1.0, hits + misses))
            .num("tensor.pool_cached_mb",
                 static_cast<double>(k1.poolCachedBytes) / kMiB)
            .num("train.snapshot_s", tree.total("train.snapshot"))
            .count("train.snapshots", tr.snapshots)
            .num("train.snapshot_mb",
                 static_cast<double>(tr.snapshotBytes) / kMiB)
            .num("serve.init_s", tree.total("serve.init"))
            .num("serve.apply_s", tree.total("serve.apply"))
            .num("serve.apply_p50_ms",
                 quantile(tree.durations("serve.apply"), 0.5) * 1e3)
            .num("serve.first_query_p50_ms",
                 quantile(tree.durations("serve.first_query"), 0.5) * 1e3)
            .num("serve.query_p50_ms",
                 quantile(tree.durations("serve.query"), 0.5) * 1e3)
            .num("trace.coverage", coverage)
            .num("trace.overhead", tr.wall / ref.wall - 1.0);
        counts.count("train_batches", tr.batches.size())
            .count("batches_diverged", diverged)
            .count("spans", tree.size())
            .num("traced_train_s", tr.wall)
            .num("untraced_train_s", ref.wall)
            .count("queries", sv.queries)
            .count("answers_checked", sv.samples.size())
            .count("answers_mismatched", mismatched)
            .count("answers_stale", sv.stale);
    }

    Json env;
    env.count("nproc", nproc())
        .str("cpu_model", cpuModel())
        .str("compiler", PERFBENCH_COMPILER)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("cxx_flags", PERFBENCH_CXX_FLAGS)
        .str("kernel_flags", PERFBENCH_KERNEL_FLAGS)
        .count("threads", cascade::ThreadPool::globalThreads())
        .count("seed", seed)
        .str("input_crc32", hex32(crc))
        .count("input_bytes", input_bytes)
        .count("events", events)
        .count("train_events", train_end)
        .flag("smoke", smoke);

    const bool correct = failed == 0;
    std::printf("%s\n", Json()
                            .str("workload", w.name)
                            .count("trace", traced ? 1 : 0)
                            .flag("correct", correct)
                            .count("attempted", attempted)
                            .count("failed", failed)
                            .raw("gates", gates.text())
                            .raw("metrics", metrics.text())
                            .raw("counts", counts.text())
                            .raw("env", env.text())
                            .text()
                            .c_str());
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc < 2)
            throw std::runtime_error("usage: perfbench gen|run --workload W ...");
        const std::string cmd = argv[1];
        const auto args = parseArgs(argc, argv);
        if (cmd == "gen")
            return cmdGen(args);
        if (cmd == "run")
            return cmdRun(args);
        throw std::runtime_error("unknown command " + cmd);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
