#include "workload.hh"

#include <sys/resource.h>

#include <cstring>
#include <stdexcept>

#include "core/cascade_batcher.hh"
#include "serve/engine.hh"
#include "train/checkpoint.hh"
#include "train/numeric_guard.hh"
#include "train/session.hh"
#include "util/rng.hh"

using namespace cascade;

namespace perfbench {

const std::vector<WorkloadDef> &
workloads()
{
    // cascade-wikitalk-tgn: the reference run, the paper's headline
    // setting; the only workload where the dependency table, the
    // boundary lookup and SG-Filter/ABS do real work. tgl-reddit-apan:
    // TGL's static batches skip all of that; GEMM- and mailbox-heavy
    // (APAN keeps 10 slots), with snapshots a small share of wall.
    static const std::vector<WorkloadDef> defs = {
        {"cascade-wikitalk-tgn", "wikitalk", 40.0, 400.0, "tgn", true},
        {"tgl-reddit-apan", "reddit", 10.0, 100.0, "apan", false},
    };
    return defs;
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

DatasetSpec
specFor(const WorkloadDef &w, bool smoke)
{
    const double scale = smoke ? w.smokeScale : w.scale;
    return std::string(w.dataset) == "wikitalk" ? wikiTalkSpec(scale)
                                                 : redditSpec(scale);
}

namespace {

ModelConfig
modelFor(const WorkloadDef &w)
{
    return std::string(w.model) == "tgn" ? tgnConfig(kDim)
                                         : apanConfig(kDim);
}

} // namespace

std::unique_ptr<Stack>
buildStack(const WorkloadDef &w, const DatasetSpec &spec,
           const std::string &path, uint64_t seed, Recorder *tracer)
{
    auto s = std::make_unique<Stack>();
    auto setup = openSpan(tracer, "setup");
    {
        auto span = openSpan(tracer, "graph.load");
        std::string err;
        s->src = Dataset::open(path, Dataset::Format::Binary, &err);
        if (!s->src)
            throw std::runtime_error("cannot open " + path + ": " + err);
    }
    {
        auto span = openSpan(tracer, "graph.adjacency");
        s->adj = std::make_unique<TemporalAdjacency>(*s->src);
    }
    s->trainEnd = s->src->size() * 17 / 20;
    s->baseBatch = spec.baseBatch;
    {
        auto span = openSpan(tracer, "tgnn.init");
        s->model = std::make_unique<TgnnModel>(
            modelFor(w), std::max(spec.numNodes, s->src->numNodes()),
            s->src->featDim(), seed + 1);
    }
    {
        auto span = openSpan(tracer, "core.preprocess");
        if (w.cascade) {
            CascadeBatcher::Options o;
            o.baseBatch = s->baseBatch;
            o.seed = seed + 2;
            s->batcher = std::make_unique<CascadeBatcher>(
                *s->src, *s->adj, s->trainEnd, o);
        } else {
            s->batcher =
                std::make_unique<FixedBatcher>(s->trainEnd, s->baseBatch);
        }
    }
    return s;
}

namespace {

/** The options trainWithSession runs the session with. */
TrainOptions
sessionOptions(const Stack &s)
{
    TrainOptions o;
    o.epochs = 1;
    o.evalBatch = s.baseBatch;
    o.validate = false;
    return o;
}

} // namespace

TrainResult
trainWithSession(Stack &s)
{
    TrainResult r;
    TrainingSession session(*s.model, *s.src, *s.adj, s.trainEnd,
                            *s.batcher, sessionOptions(s));
    double t0 = 0.0;
    session.setBatchObserver([&r, &t0](const BatchRecord &b) {
        r.batches.push_back({b.st, b.ed, b.loss});
        r.batchEnd.push_back(nowSeconds() - t0);
    });
    t0 = nowSeconds();
    const TrainReport rep = session.run();
    r.wall = nowSeconds() - t0;
    for (const LossRecord &b : r.batches)
        r.events += b.ed - b.st;
    r.rolledBack = rep.guardTrips;
    r.attempted = rep.totalBatches + rep.guardTrips;
    return r;
}

std::vector<double>
segmentSeconds(const TrainResult &r)
{
    const size_t every = TrainOptions{}.checkpointEvery;
    std::vector<double> out;
    double from = 0.0;
    for (size_t i = 0; i < r.batchEnd.size(); ++i)
        if (every != 0 && (i + 1) % every == 0 &&
            i + 1 < r.batchEnd.size()) {
            out.push_back(r.batchEnd[i] - from);
            from = r.batchEnd[i];
        }
    out.push_back(r.wall - from);
    return out;
}

TrainResult
trainTraced(Stack &s, Recorder &tracer)
{
    // The synchronous path of TrainingSession::run for one epoch
    // without a checkpoint file: pristine snapshot, epoch reset, then
    // per batch boundary → forward → backward+Adam → writeback →
    // guard → feedback, and a snapshot at the session's cadence.
    // TgnnModel::step is exactly forward, backward, writeback.
    const TrainOptions o = sessionOptions(s);
    TrainResult r;
    TrainerCursor cur;
    NumericGuard guard(o.guard);
    std::string last_good;
    r.kernelsBefore = kernels::stats();
    auto train = openSpan(&tracer, "train");
    const double t0 = nowSeconds();
    {
        auto span = openSpan(&tracer, "train.snapshot");
        last_good = encodeCheckpoint(*s.model, *s.batcher, cur);
    }
    ++r.snapshots;
    {
        auto span = openSpan(&tracer, "train.reset");
        s.model->resetState();
        s.batcher->reset();
    }
    while (cur.st < s.trainEnd) {
        auto batch = openSpan(&tracer, "batch");
        const size_t st = static_cast<size_t>(cur.st);
        size_t ed = 0;
        {
            auto span = openSpan(&tracer, "core.next");
            ed = s.batcher->next(st);
        }
        if (ed <= st || ed > s.trainEnd)
            throw std::runtime_error("batcher returned a bad range");
        TgnnModel::Forward f;
        {
            auto span = openSpan(&tracer, "tgnn.forward");
            f = s.model->stepForward(*s.src, *s.adj, st, ed);
        }
        {
            auto span = openSpan(&tracer, "tgnn.backward");
            s.model->stepBackward(f);
        }
        StepResult res = std::move(f.result);
        {
            auto span = openSpan(&tracer, "tgnn.writeback");
            if (f.writeback.active) {
                res.memCosine = s.model->applyWriteback(*s.src, f.writeback);
                res.updatedNodes = std::move(f.writeback.nodes);
            }
        }
        ++r.attempted;
        bool healthy = false;
        {
            auto span = openSpan(&tracer, "train.guard");
            healthy = guard.admit(res.loss, res.gradNorm);
        }
        if (!healthy) {
            // The session would roll back here; the gate compares
            // against a healthy untraced run, so a trip is a failure.
            ++r.rolledBack;
            break;
        }
        {
            auto span = openSpan(&tracer, "core.feedback");
            BatchFeedback fb;
            fb.batchIndex = static_cast<size_t>(cur.batchIndex);
            fb.st = st;
            fb.ed = ed;
            fb.loss = res.loss;
            fb.updatedNodes = &res.updatedNodes;
            fb.memCosine = &res.memCosine;
            s.batcher->onBatchDone(fb);
        }
        r.batches.push_back({st, ed, res.loss});
        r.events += res.numEvents;
        r.sampledNeighbors += res.sampledNeighbors;
        cur.lossSum += res.loss * res.numEvents;
        cur.epochEvents += res.numEvents;
        cur.totalEvents += res.numEvents;
        ++cur.batchIndex;
        ++cur.totalBatches;
        ++cur.globalBatch;
        cur.st = ed;
        if (o.checkpointEvery != 0 &&
            cur.globalBatch % o.checkpointEvery == 0) {
            auto span = openSpan(&tracer, "train.snapshot");
            last_good = encodeCheckpoint(*s.model, *s.batcher, cur);
            ++r.snapshots;
        }
    }
    r.wall = nowSeconds() - t0;
    train.end();
    r.kernelsAfter = kernels::stats();
    r.snapshotBytes = last_good.size();
    return r;
}

EvalResult
evalWithModel(Stack &s)
{
    EvalResult r;
    const size_t n = s.src->size();
    const double t0 = nowSeconds();
    r.loss = s.model->evalLoss(*s.src, *s.adj, s.trainEnd, n, s.baseBatch);
    r.wall = nowSeconds() - t0;
    r.events = n - s.trainEnd;
    return r;
}

EvalResult
evalTraced(Stack &s, Recorder &tracer)
{
    // TgnnModel::evalMetrics' loop and accumulation order, so the
    // loss is bit-identical to evalLoss.
    EvalResult r;
    const size_t n = s.src->size();
    auto eval = openSpan(&tracer, "eval");
    const double t0 = nowSeconds();
    double loss = 0.0;
    for (size_t lo = s.trainEnd; lo < n; lo += s.baseBatch) {
        const size_t hi = std::min(n, lo + s.baseBatch);
        auto span = openSpan(&tracer, "tgnn.eval_batch");
        const StepResult res = s.model->step(*s.src, *s.adj, lo, hi, false);
        loss += res.loss * res.numEvents;
        r.events += res.numEvents;
    }
    r.wall = nowSeconds() - t0;
    r.loss = r.events ? loss / r.events : 0.0;
    return r;
}

ServeResult
serve(Stack &s, const TgnnModel::State &start, uint64_t seed,
      double min_seconds, Recorder *tracer)
{
    ServeResult r;
    Rng rng(seed + 5);
    double measured = 0.0;
    do {
        auto serve_span = openSpan(tracer, "serve");
        const double pass_t0 = nowSeconds();
        {
            auto span = openSpan(tracer, "serve.restore");
            s.model->restoreState(start);
        }
        std::unique_ptr<ServeEngine> engine;
        std::unique_ptr<ServeReader> reader;
        {
            auto span = openSpan(tracer, "serve.init");
            engine = std::make_unique<ServeEngine>(*s.model, *s.src, *s.adj,
                                                   s.trainEnd);
            reader = std::make_unique<ServeReader>(*engine);
        }
        while (engine->pendingEvents() > 0) {
            auto window = openSpan(tracer, "window");
            const size_t before = engine->appliedEvents();
            const double apply_t0 = nowSeconds();
            size_t n = 0;
            {
                auto span = openSpan(tracer, "serve.apply");
                n = engine->applyEvents(kWindow, kApplyBatch);
            }
            r.applySeconds.push_back(nowSeconds() - apply_t0);
            r.applyEvents.push_back(n);
            r.liveEvents += n;
            if (r.passes == 0)
                r.windows.emplace_back(before, before + n);
            for (size_t q = 0; q < kQueriesPerWindow; ++q) {
                // Four nodes from two events of the window just applied.
                const Event a = s.src->event(
                    static_cast<EventIdx>(before + rng.uniformInt(n)));
                const Event b = s.src->event(
                    static_cast<EventIdx>(before + rng.uniformInt(n)));
                const bool score = q % 2 == 1;
                const std::vector<NodeId> nodes = {a.src, a.dst, b.src,
                                                   b.dst};
                Tensor answer;
                const double q_t0 = nowSeconds();
                try {
                    auto span = openSpan(tracer, q == 0 ? "serve.first_query"
                                              : "serve.query");
                    answer = score ? reader->scoreLinks({a.src, b.src},
                                                        {a.dst, b.dst})
                                   : reader->embed(nodes);
                } catch (const std::exception &) {
                    ++r.queryErrors;
                }
                const double ms = (nowSeconds() - q_t0) * 1e3;
                (q == 0 ? r.firstQueryMs : r.otherQueryMs).push_back(ms);
                ++r.queries;
                if (reader->syncedVersion() != engine->snapshot()->version)
                    ++r.stale;
                if (r.passes == 0 && q % kSampleEvery == 0) {
                    r.samples.push_back(
                        {r.windows.size() - 1, score, nodes,
                         std::vector<float>(answer.data(),
                                            answer.data() + answer.size())});
                }
            }
        }
        ++r.passes;
        measured += nowSeconds() - pass_t0;
    } while (measured < min_seconds);
    return r;
}

size_t
checkServeAnswers(Stack &s, const TgnnModel::State &start,
                  const ServeResult &r, bool perturb)
{
    s.model->restoreState(start);
    size_t mismatches = 0;
    size_t next = 0;
    for (size_t w = 0; w < r.windows.size(); ++w) {
        const auto [a, b] = r.windows[w];
        for (size_t cur = a; cur < b;) {
            const size_t ed = std::min(b, cur + kApplyBatch);
            s.model->advanceState(*s.src, cur, ed);
            cur = ed;
        }
        const double ts = s.src->event(static_cast<EventIdx>(b - 1)).ts;
        const auto before = static_cast<EventIdx>(b);
        for (; next < r.samples.size() && r.samples[next].window == w;
             ++next) {
            const ServeSample &smp = r.samples[next];
            const std::vector<NodeId> &n = smp.nodes;
            const Tensor offline =
                smp.score ? s.model->scoreLinks({n[0], n[2]}, {n[1], n[3]},
                                                ts, *s.src, *s.adj, before)
                          : s.model->embedNodes(n, ts, *s.src, *s.adj,
                                                before);
            std::vector<float> served = smp.answer;
            if (perturb && next == 0 && !served.empty()) {
                uint32_t bits;
                std::memcpy(&bits, &served[0], sizeof bits);
                bits ^= 1u;
                std::memcpy(&served[0], &bits, sizeof bits);
            }
            if (served.size() != offline.size() ||
                std::memcmp(served.data(), offline.data(),
                            served.size() * sizeof(float)) != 0)
                ++mismatches;
        }
    }
    return mismatches;
}

double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
