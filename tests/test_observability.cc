/**
 * @file
 * Observability-layer tests: metrics-registry semantics, trace-span
 * nesting, JSON well-formedness of both exports (validated by parsing
 * them back), and the TrainingSession's stage accounting — per-stage
 * seconds must reconcile with the report's wall seconds, each report
 * field must read its one instrument, and the state the session
 * publishes at the end of a run must be the components' final state.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "core/cascade_batcher.hh"
#include "graph/dataset.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "train/batcher.hh"
#include "tensor/kernels.hh"
#include "train/session.hh"
#include "util/fault.hh"

using namespace cascade;

namespace {

/**
 * Minimal recursive-descent JSON validator. Accepts exactly the JSON
 * grammar (objects, arrays, strings with escapes, numbers, true/false/
 * null); returns false on trailing garbage or any syntax error. Enough
 * to prove the exports are loadable by a real parser.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') { ++pos_; return true; }
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control character
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
                const char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= s_.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(s_[pos_])))
                            return false;
                    }
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            }
            ++pos_;
        }
        return false;
    }

    bool
    number()
    {
        const size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (!digits())
            return false;
        if (peek() == '.') {
            ++pos_;
            if (!digits())
                return false;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!digits())
                return false;
        }
        return pos_ > start;
    }

    bool
    digits()
    {
        const size_t start = pos_;
        while (pos_ < s_.size() &&
               std::isdigit(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        const size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    const std::string &s_;
    size_t pos_ = 0;
};

struct Fixture
{
    DatasetSpec spec;
    EventSequence data;
    VectorEventSource src;
    TemporalAdjacency adj;
    size_t trainEnd;

    explicit Fixture(double scale = 250.0, uint64_t seed = 31)
        : spec(wikiSpec(scale)),
          data([&] {
              Rng rng(seed);
              return generateDataset(spec, rng);
          }()),
          src(data), adj(data), trainEnd(data.size() * 4 / 5)
    {}
};

} // namespace

TEST(Metrics, CounterSemantics)
{
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("x");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // Same name resolves to the same instrument.
    reg.counter("x").add(8);
    EXPECT_EQ(c.value(), 50u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeSemantics)
{
    obs::MetricsRegistry reg;
    obs::Gauge &g = reg.gauge("util");
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    g.set(0.75);
    g.set(0.5); // last write wins
    EXPECT_DOUBLE_EQ(reg.gauge("util").value(), 0.5);
}

TEST(Metrics, HistogramSemantics)
{
    obs::MetricsRegistry reg;
    obs::Histogram &h = reg.histogram("lat");
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);

    h.record(1e-5);
    h.record(2e-5);
    h.record(0.3);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 1e-5 + 2e-5 + 0.3);
    EXPECT_DOUBLE_EQ(h.min(), 1e-5);
    EXPECT_DOUBLE_EQ(h.max(), 0.3);
    EXPECT_NEAR(h.mean(), h.sum() / 3.0, 1e-12);

    const std::vector<uint64_t> buckets = h.buckets();
    ASSERT_EQ(buckets.size(), obs::Histogram::kBuckets);
    uint64_t total = 0;
    for (uint64_t b : buckets)
        total += b;
    EXPECT_EQ(total, 3u); // every sample lands in exactly one bucket

    // Samples beyond the largest bound fall into the overflow bucket.
    h.record(1e9);
    EXPECT_EQ(h.buckets().back(), 1u);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(Metrics, HistogramBucketBoundsAreSortedAndCoverStageTimes)
{
    const std::vector<double> &bounds = obs::Histogram::bucketBounds();
    ASSERT_FALSE(bounds.empty());
    for (size_t i = 1; i < bounds.size(); ++i)
        EXPECT_LT(bounds[i - 1], bounds[i]);
    EXPECT_LE(bounds.front(), 1e-7);
    EXPECT_GE(bounds.back(), 1e3);
}

TEST(Metrics, FindDoesNotCreate)
{
    obs::MetricsRegistry reg;
    EXPECT_EQ(reg.findCounter("missing"), nullptr);
    EXPECT_EQ(reg.findGauge("missing"), nullptr);
    EXPECT_EQ(reg.findHistogram("missing"), nullptr);
    reg.counter("present").add(3);
    ASSERT_NE(reg.findCounter("present"), nullptr);
    EXPECT_EQ(reg.findCounter("present")->value(), 3u);
}

TEST(Metrics, SnapshotIsSortedAndComplete)
{
    obs::MetricsRegistry reg;
    reg.counter("b.count").add(2);
    reg.counter("a.count").add(1);
    reg.gauge("z.gauge").set(9.0);
    reg.histogram("h.hist").record(0.5);

    const obs::MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "a.count");
    EXPECT_EQ(snap.counters[1].first, "b.count");
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(snap.gauges[0].second, 9.0);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].count, 1u);
    EXPECT_EQ(snap.histograms[0].buckets.size(),
              obs::Histogram::kBuckets);
}

TEST(Metrics, JsonExportIsWellFormed)
{
    obs::MetricsRegistry reg;
    reg.counter("stage.count").add(7);
    reg.gauge("weird \"name\"\n").set(-1.25e-3);
    reg.histogram("stage.model.seconds").record(0.001);
    reg.histogram("stage.model.seconds").record(12.5);

    const std::string json = reg.toJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("stage.model.seconds"), std::string::npos);
}

TEST(Metrics, JsonFileSinkWritesParseableFile)
{
    obs::MetricsRegistry reg;
    reg.counter("c").add(1);
    const std::string path = "test_obs_metrics.json";
    obs::JsonFileSink sink(path);
    ASSERT_TRUE(sink.write(reg));

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string content;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        content.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_TRUE(JsonChecker(content).valid()) << content;
}

TEST(Trace, SpansNestPerThread)
{
    obs::TraceRecorder rec;
    {
        auto outer = rec.span("outer", "test");
        {
            auto inner = rec.span("inner", "test");
        }
        auto sibling = rec.span("sibling", "test");
        sibling.end();
        sibling.end(); // idempotent
    }
    const std::vector<obs::TraceEvent> evs = rec.events();
    ASSERT_EQ(evs.size(), 3u);
    // Spans record at close, innermost first.
    EXPECT_EQ(evs[0].name, "inner");
    EXPECT_EQ(evs[0].depth, 1);
    EXPECT_EQ(evs[1].name, "sibling");
    EXPECT_EQ(evs[1].depth, 1);
    EXPECT_EQ(evs[2].name, "outer");
    EXPECT_EQ(evs[2].depth, 0);
    EXPECT_EQ(rec.maxDepth(), 1);
    for (const obs::TraceEvent &e : evs) {
        EXPECT_GE(e.tsMicros, 0.0);
        EXPECT_GE(e.durMicros, 0.0);
    }
    // The nested span opened after and closed before its parent.
    EXPECT_GE(evs[0].tsMicros, evs[2].tsMicros);
    EXPECT_LE(evs[0].tsMicros + evs[0].durMicros,
              evs[2].tsMicros + evs[2].durMicros + 1.0);
}

TEST(Trace, ThreadsGetDistinctTids)
{
    obs::TraceRecorder rec;
    {
        auto main_span = rec.span("main", "test");
        std::thread t([&] { auto s = rec.span("worker", "test"); });
        t.join();
    }
    const std::vector<obs::TraceEvent> evs = rec.events();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_NE(evs[0].tid, evs[1].tid);
    // Each thread starts its own depth at 0.
    EXPECT_EQ(evs[0].depth, 0);
    EXPECT_EQ(evs[1].depth, 0);
}

TEST(Trace, RetentionCapCountsDrops)
{
    obs::TraceRecorder rec(4);
    for (int i = 0; i < 10; ++i)
        rec.span("s", "test").end();
    EXPECT_EQ(rec.eventCount(), 4u);
    EXPECT_EQ(rec.droppedEvents(), 6u);
}

TEST(Trace, JsonExportIsWellFormedTraceEventFormat)
{
    obs::TraceRecorder rec;
    {
        auto a = rec.span("epoch", "session");
        auto b = rec.span("needs \"escaping\"", "stage");
    }
    const std::string json = rec.toJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(TrainingSession, StageSecondsReconcileWithWallSeconds)
{
    // Once without checkpoints, once with cadence writes running on
    // the background writer beside the training thread, each write
    // window widened by an injected latency: the stages time the
    // training thread only, so either way they must add up to the
    // epoch walls.
    constexpr double kLatencyMs = 3.0;
    struct FaultScope
    {
        explicit FaultScope(const fault::Config &c) { fault::configure(c); }
        ~FaultScope() { fault::reset(); }
    };
    for (const bool with_writes : {false, true}) {
        SCOPED_TRACE(with_writes ? "checkpoint writes" : "no checkpoint");
        fault::Config fc;
        if (with_writes)
            fc.checkpointLatencyMs = kLatencyMs;
        FaultScope faults(fc);
        Fixture f;
        TgnnModel model(tgnConfig(16), f.spec.numNodes,
                        f.data.featDim(), 1);
        FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
        TrainOptions o;
        o.epochs = 2;
        o.validate = false; // eval runs outside the epoch wall clocks
        // With writes, the final checkpoint runs after the epochs and
        // outside any stage, so only cadence points count.
        o.checkpointEvery = with_writes ? 3 : 0;
        if (with_writes) {
            o.checkpointPath = std::string(::testing::TempDir()) +
                               "obs_reconcile_ck.bin";
        }

        TrainingSession session(model, f.src, f.adj, f.trainEnd,
                                batcher, o);
        TrainReport r = session.run();
        ASSERT_GT(r.wallSeconds, 0.0);

        double stage_sum = 0.0;
        for (const char *name :
             {"stage.boundary.seconds", "stage.model.seconds",
              "stage.guard.seconds", "stage.feedback.seconds",
              "stage.checkpoint.seconds"}) {
            const obs::Histogram *h =
                session.metrics().findHistogram(name);
            if (h)
                stage_sum += h->sum();
        }
        EXPECT_LE(stage_sum, r.wallSeconds);
        // Per-stage seconds must account for the run's wall time to
        // within 5% (plus a small absolute epsilon for tiny runs).
        EXPECT_NEAR(stage_sum, r.wallSeconds,
                    0.05 * r.wallSeconds + 2e-3);

        // Every cadence write was timed on the writer's own histogram,
        // injected latency included.
        const obs::Histogram *writes =
            session.metrics().findHistogram("checkpoint.write_seconds");
        if (with_writes) {
            ASSERT_NE(writes, nullptr);
            EXPECT_GT(writes->count(), 0u);
            // One write per cadence snapshot.
            const obs::Histogram *snapshots =
                session.metrics().findHistogram("stage.checkpoint.seconds");
            ASSERT_NE(snapshots, nullptr);
            EXPECT_EQ(writes->count(), snapshots->count());
            EXPECT_GE(writes->sum(),
                      static_cast<double>(writes->count()) * kLatencyMs *
                          1e-3);
        } else {
            EXPECT_EQ(writes, nullptr);
        }
    }
}

namespace {

/** Every TrainReport measurement field against its one instrument. */
void
expectReportReadsItsInstruments(const TrainReport &r,
                                const obs::MetricsRegistry &m)
{
    // Instruments every run records or publishes.
    for (const char *name : {"stage.model.seconds",
                             "stage.boundary.seconds",
                             "epoch.wall_seconds",
                             "device.batch_seconds"})
        ASSERT_NE(m.findHistogram(name), nullptr) << name;
    for (const char *name :
         {"device.utilization", "batcher.preprocess_seconds"})
        ASSERT_NE(m.findGauge(name), nullptr) << name;
    ASSERT_NE(m.findCounter("guard.trips"), nullptr);

    // The rest exist only once their event happened (a retry, a
    // worker group, a resume); absent reads as the field's default.
    const auto count = [&m](const char *name) -> size_t {
        const obs::Counter *c = m.findCounter(name);
        return c ? static_cast<size_t>(c->value()) : 0;
    };
    const auto gauge = [&m](const char *name, double absent) {
        const obs::Gauge *g = m.findGauge(name);
        return g ? g->value() : absent;
    };
    const auto sum = [&m](const char *name) {
        return m.findHistogram(name)->sum();
    };
    EXPECT_EQ(r.modelSeconds, sum("stage.model.seconds"));
    EXPECT_EQ(r.lookupSeconds, sum("stage.boundary.seconds"));
    EXPECT_EQ(r.wallSeconds, sum("epoch.wall_seconds"));
    EXPECT_EQ(r.deviceSeconds, sum("device.batch_seconds"));
    EXPECT_EQ(r.deviceUtilization, gauge("device.utilization", -1.0));
    EXPECT_EQ(r.preprocessSeconds,
              gauge("batcher.preprocess_seconds", -1.0));
    EXPECT_EQ(r.guardTrips, count("guard.trips"));
    EXPECT_EQ(r.checkpointRetries, count("checkpoint.retries"));
    EXPECT_EQ(r.checkpointWriteFailures, count("checkpoint.failures"));
    EXPECT_EQ(r.degradations, count("degrade.transitions"));
    EXPECT_EQ(r.workers,
              static_cast<size_t>(gauge("worker.group_size", 1.0)));
    EXPECT_EQ(r.shards, static_cast<size_t>(gauge("worker.shards", 0.0)));
    EXPECT_EQ(r.workerDeaths, count("worker.deaths"));
    EXPECT_EQ(r.resumedGeneration,
              static_cast<size_t>(
                  gauge("checkpoint.recovered_generation", 0.0)));
    EXPECT_EQ(r.corruptSkippedOnResume,
              count("checkpoint.corrupt_skipped"));
}

} // namespace

TEST(TrainingSession, ReportIsAssembledFromTheRegistry)
{
    struct FaultScope
    {
        explicit FaultScope(const fault::Config &c) { fault::configure(c); }
        ~FaultScope() { fault::reset(); }
    };
    for (const bool nan : {false, true}) {
        SCOPED_TRACE(nan ? "NaN at batch 3" : "plain run");
        fault::Config fc;
        if (nan)
            fc.nanBatch = 3;
        FaultScope faults(fc);
        Fixture f;
        TgnnModel model(tgnConfig(16), f.spec.numNodes,
                        f.data.featDim(), 2);
        FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
        TrainOptions o;
        o.epochs = 1;
        o.evalBatch = f.spec.baseBatch;
        o.checkpointEvery = 2; // the rollback grain
        DeviceModel device;

        TrainingSession session(model, f.src, f.adj, f.trainEnd,
                                batcher, o, &device);
        TrainReport r = session.run();

        const obs::MetricsRegistry &m = session.metrics();
        expectReportReadsItsInstruments(r, m);
        // The histogram sums the charges in order, as the device does.
        EXPECT_EQ(r.deviceSeconds, device.totalSeconds());
        EXPECT_EQ(r.deviceUtilization, device.utilization());

        // train.batch_size samples admitted batches, a replayed one
        // each time; the report's totalBatches is the trajectory's count.
        ASSERT_NE(m.findHistogram("train.batch_size"), nullptr);
        const uint64_t admitted =
            m.findHistogram("train.batch_size")->count();
        if (nan) {
            EXPECT_GT(admitted, r.totalBatches);
        } else {
            EXPECT_EQ(admitted, r.totalBatches);
        }
        EXPECT_EQ(m.findHistogram("device.batch_seconds")->count(),
                  admitted);
        ASSERT_NE(m.findHistogram("stage.eval.seconds"), nullptr);
        EXPECT_EQ(m.findHistogram("stage.eval.seconds")->count(), 1u);

        // A trip rolls back (or ends the run), so guard.trips is the
        // rollback count too; there is no second instrument for it.
        EXPECT_EQ(r.guardTrips, nan ? 1u : 0u);
        EXPECT_EQ(m.findCounter("train.rollbacks"), nullptr);

        // The trace saw every admitted batch and the tripped one.
        size_t batch_spans = 0;
        for (const obs::TraceEvent &e : session.trace().events())
            if (e.name == "batch")
                ++batch_spans;
        EXPECT_EQ(batch_spans, admitted + r.guardTrips);
    }
}

TEST(TrainingSession, PublishesBatcherStateAtRunEnd)
{
    // Cascade_EX walks four chunk tables twice; the gauge must hold
    // the state the batcher ends with, not the state at construction.
    Fixture f;
    TgnnModel model(tgnConfig(16), f.spec.numNodes, f.data.featDim(),
                    4);
    CascadeBatcher::Options copts;
    copts.baseBatch = f.spec.baseBatch;
    copts.chunkSize = f.trainEnd / 4 + 1;
    CascadeBatcher batcher(f.src, f.adj, f.trainEnd, copts);
    ASSERT_EQ(batcher.diffuser().numChunks(), 4u);
    TrainOptions o;
    o.epochs = 2;
    o.evalBatch = f.spec.baseBatch;

    TrainingSession session(model, f.src, f.adj, f.trainEnd, batcher,
                            o);
    session.run();

    const obs::MetricsRegistry &m = session.metrics();
    ASSERT_NE(m.findGauge("batcher.state_bytes"), nullptr);
    EXPECT_EQ(m.findGauge("batcher.state_bytes")->value(),
              static_cast<double>(batcher.stateBytes()));
    ASSERT_NE(m.findGauge("batcher.preprocess_seconds"), nullptr);
    EXPECT_EQ(m.findGauge("batcher.preprocess_seconds")->value(),
              batcher.preprocessSeconds());

    // The components' internals are read through their accessors;
    // no second name holds a fact another instrument already holds.
    for (const char *name :
         {"abs.maxr", "abs.decays", "abs.ceiling_scale",
          "sgfilter.updates.total", "sgfilter.updates.stable",
          "sgfilter.stable_nodes", "diffuser.preprocess_seconds",
          "diffuser.table_bytes", "batcher.profile_seconds",
          "stage.lookup.seconds", "train.lookup_seconds",
          "train.preprocess_seconds", "train.wall_seconds",
          "train.rollbacks", "device.total_seconds", "device.batches",
          "model.steps", "model.events", "model.work_rows",
          "model.sampled_neighbors", "checkpoint.write_failures",
          "worker.rebalances", "kernels.pool.hits",
          "kernels.pool.misses"}) {
        EXPECT_EQ(m.findCounter(name), nullptr) << name;
        EXPECT_EQ(m.findGauge(name), nullptr) << name;
        EXPECT_EQ(m.findHistogram(name), nullptr) << name;
    }
}

TEST(TrainingSession, KernelCountersCoverTheRun)
{
    // The session publishes the change in kernels::stats() over run(),
    // after the eval stage, so eval's kernel work is counted too.
    Fixture f;
    TgnnModel model(tgnConfig(16), f.spec.numNodes, f.data.featDim(),
                    5);
    FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
    TrainOptions o;
    o.epochs = 1;
    o.evalBatch = f.spec.baseBatch;

    TrainingSession session(model, f.src, f.adj, f.trainEnd, batcher,
                            o);
    const kernels::KernelStats before = kernels::stats();
    session.run();
    const kernels::KernelStats after = kernels::stats();

    const obs::MetricsRegistry &m = session.metrics();
    ASSERT_NE(m.findHistogram("stage.eval.seconds"), nullptr);
    ASSERT_NE(m.findCounter("kernels.gemm.calls"), nullptr);
    EXPECT_GT(m.findCounter("kernels.gemm.calls")->value(), 0u);
    EXPECT_EQ(m.findCounter("kernels.gemm.calls")->value(),
              after.gemmCalls - before.gemmCalls);
}

TEST(TrainingSession, RunsAtMostOnce)
{
    Fixture f;
    TgnnModel model(tgnConfig(16), f.spec.numNodes, f.data.featDim(),
                    3);
    FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
    TrainOptions o;
    o.epochs = 1;
    o.validate = false;
    TrainingSession session(model, f.src, f.adj, f.trainEnd, batcher,
                            o);
    session.run();
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(session.run(), "already ran");
}
