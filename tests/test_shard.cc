/**
 * @file
 * Sharded multi-worker training (train/shard.hh, train/collective.hh):
 * the shard partition/seed primitives, the fixed-order merge, the wire
 * format, and the WorkerGroup determinism contract end to end — the
 * trajectory and final model state must be bit-identical for any
 * worker count, across a worker SIGKILL mid-epoch, and across a
 * checkpoint resume under a different worker count. The same
 * contract, driven through the real CLI with uncooperative by-PID
 * kills, lives in tools/chaos_soak.sh section 5 and the fault-matrix
 * worker cases.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/cascade_batcher.hh"
#include "graph/dataset.hh"
#include "train/collective.hh"
#include "train/session.hh"
#include "train/shard.hh"
#include "train/trainer.hh"
#include "util/fault.hh"

using namespace cascade;

namespace {

struct Fixture
{
    DatasetSpec spec;
    EventSequence data;
    VectorEventSource src;
    TemporalAdjacency adj;
    size_t trainEnd;

    explicit Fixture(double scale = 150.0, uint64_t seed = 31)
        : spec(wikiSpec(scale)),
          data([&] {
              Rng rng(seed);
              return generateDataset(spec, rng);
          }()),
          src(data), adj(data), trainEnd(data.size() * 4 / 5)
    {}
};

struct TrajBatch
{
    size_t st = 0;
    size_t ed = 0;
    double loss = 0.0;
};

struct RunOutcome
{
    std::vector<TrajBatch> batches;
    std::string finalState; ///< saveTrainingState blob
    TrainReport report;
    uint64_t resyncs = 0;         ///< `worker.resyncs`
    double mergeSecondsMax = 0.0; ///< `worker.merge_seconds` max
};

/** One full session run under the given worker topology. */
RunOutcome
runSharded(const Fixture &f, size_t workers, size_t shards,
           size_t epochs, uint64_t model_seed = 7,
           TrainOptions base = TrainOptions{})
{
    TgnnModel model(tgnConfig(16), f.spec.numNodes, f.data.featDim(),
                    model_seed);
    CascadeBatcher::Options copts;
    copts.baseBatch = f.spec.baseBatch;
    copts.seed = 11;
    CascadeBatcher batcher(f.src, f.adj, f.trainEnd, copts);

    TrainOptions o = base;
    o.epochs = epochs;
    o.validate = false;
    o.workers = workers;
    o.shards = shards;

    RunOutcome out;
    TrainingSession session(model, f.src, f.adj, f.trainEnd, batcher,
                            o);
    session.setBatchObserver([&](const BatchRecord &rec) {
        out.batches.push_back({rec.st, rec.ed, rec.loss});
    });
    out.report = session.run();
    out.resyncs = session.metrics().counter("worker.resyncs").value();
    out.mergeSecondsMax =
        session.metrics().histogram("worker.merge_seconds").max();
    ByteWriter w;
    model.saveTrainingState(w);
    out.finalState = w.buffer();
    return out;
}

void
expectSameTrajectory(const RunOutcome &a, const RunOutcome &b)
{
    ASSERT_EQ(a.batches.size(), b.batches.size());
    for (size_t i = 0; i < a.batches.size(); ++i) {
        SCOPED_TRACE("batch " + std::to_string(i));
        EXPECT_EQ(a.batches[i].st, b.batches[i].st);
        EXPECT_EQ(a.batches[i].ed, b.batches[i].ed);
        // Bit-identical, not approximately equal: the collective must
        // not move a single floating-point operation.
        EXPECT_EQ(a.batches[i].loss, b.batches[i].loss);
    }
    EXPECT_EQ(a.finalState, b.finalState);
}

/** Arm a fault plan for the test's scope, then disarm. */
struct FaultScope
{
    explicit FaultScope(const fault::Config &c) { fault::configure(c); }
    ~FaultScope() { fault::reset(); }
};

} // namespace

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

TEST(ShardSlice, PartitionsTheBatchContiguouslyInOrder)
{
    for (size_t k : {1u, 2u, 3u, 4u, 7u}) {
        SCOPED_TRACE("K=" + std::to_string(k));
        const size_t st = 103, ed = 157;
        size_t cursor = st;
        for (size_t s = 0; s < k; ++s) {
            const auto slice = shardSlice(st, ed, k, s);
            EXPECT_EQ(slice.first, cursor); // no gaps, no overlap
            EXPECT_LE(slice.first, slice.second);
            cursor = slice.second;
        }
        EXPECT_EQ(cursor, ed); // slices cover the whole batch
    }
}

TEST(ShardSlice, MoreShardsThanEventsYieldsEmptySlices)
{
    const size_t st = 10, ed = 13; // 3 events, 8 shards
    size_t nonempty = 0, covered = 0;
    for (size_t s = 0; s < 8; ++s) {
        const auto slice = shardSlice(st, ed, 8, s);
        if (slice.first != slice.second) {
            ++nonempty;
            covered += slice.second - slice.first;
        }
    }
    EXPECT_EQ(nonempty, 3u);
    EXPECT_EQ(covered, 3u);
}

TEST(ShardSeed, PureFunctionDistinctPerBatchAndShard)
{
    EXPECT_EQ(shardSeed(42, 7, 3), shardSeed(42, 7, 3));
    EXPECT_NE(shardSeed(42, 7, 3), shardSeed(42, 7, 4));
    EXPECT_NE(shardSeed(42, 7, 3), shardSeed(42, 8, 3));
    EXPECT_NE(shardSeed(42, 7, 3), shardSeed(43, 7, 3));
}

// ---------------------------------------------------------------------
// Collective
// ---------------------------------------------------------------------

namespace {

ShardResult
syntheticShard(uint32_t shard, double loss, size_t events,
               std::vector<float> grads)
{
    ShardResult r;
    r.shard = shard;
    r.loss = loss;
    r.numEvents = events;
    r.rankAccuracy = 0.5;
    r.grads = std::move(grads);
    return r;
}

} // namespace

TEST(Collective, MergeIsEventWeighted)
{
    std::vector<ShardResult> results;
    results.push_back(syntheticShard(0, 1.0, 2, {1.0f, 0.0f}));
    results.push_back(syntheticShard(1, 2.0, 6, {0.0f, 1.0f}));
    MergedUpdate u = mergeShardResults(std::move(results));

    EXPECT_EQ(u.result.numEvents, 8u);
    EXPECT_DOUBLE_EQ(u.result.loss, (1.0 * 2 + 2.0 * 6) / 8.0);
    ASSERT_EQ(u.grads.size(), 2u);
    EXPECT_FLOAT_EQ(u.grads[0], static_cast<float>(2.0 / 8.0));
    EXPECT_FLOAT_EQ(u.grads[1], static_cast<float>(6.0 / 8.0));
}

TEST(Collective, MergeIsArrivalOrderInvariant)
{
    // Workers finish when they finish; the reduction must not care.
    // Identical inputs in three arrival orders must merge to
    // bit-identical outputs (loss AND every gradient element).
    auto make = [] {
        std::vector<ShardResult> v;
        v.push_back(syntheticShard(0, 0.37, 5, {0.1f, 0.2f, 0.3f}));
        v.push_back(syntheticShard(1, 1.21, 3, {0.7f, 0.01f, 0.9f}));
        v.push_back(syntheticShard(2, 0.05, 9, {0.4f, 0.5f, 0.6f}));
        return v;
    };
    std::vector<ShardResult> sorted = make();
    std::vector<ShardResult> reversed = make();
    std::reverse(reversed.begin(), reversed.end());
    std::vector<ShardResult> rotated = make();
    std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());

    const MergedUpdate a = mergeShardResults(std::move(sorted));
    const MergedUpdate b = mergeShardResults(std::move(reversed));
    const MergedUpdate c = mergeShardResults(std::move(rotated));

    EXPECT_EQ(a.result.loss, b.result.loss);
    EXPECT_EQ(a.result.loss, c.result.loss);
    ASSERT_EQ(a.grads.size(), b.grads.size());
    ASSERT_EQ(a.grads.size(), c.grads.size());
    for (size_t i = 0; i < a.grads.size(); ++i) {
        EXPECT_EQ(a.grads[i], b.grads[i]) << "element " << i;
        EXPECT_EQ(a.grads[i], c.grads[i]) << "element " << i;
    }
}

TEST(Collective, ShardResultWireFormatRoundTrips)
{
    ShardResult in = syntheticShard(3, 0.625, 17, {1.5f, -2.25f});
    in.workRows = 11;
    in.sampledNeighbors = 23;

    ByteWriter w;
    writeShardResult(w, in);
    ByteReader r(w.buffer());
    ShardResult out;
    ASSERT_TRUE(readShardResult(r, out));
    EXPECT_EQ(out.shard, in.shard);
    EXPECT_EQ(out.loss, in.loss);
    EXPECT_EQ(out.numEvents, in.numEvents);
    EXPECT_EQ(out.rankAccuracy, in.rankAccuracy);
    EXPECT_EQ(out.workRows, in.workRows);
    EXPECT_EQ(out.sampledNeighbors, in.sampledNeighbors);
    EXPECT_EQ(out.grads, in.grads);
}

TEST(Collective, TruncatedShardResultIsRejected)
{
    ShardResult in = syntheticShard(1, 0.5, 4, {1.0f, 2.0f, 3.0f});
    ByteWriter w;
    writeShardResult(w, in);
    // A worker killed mid-frame-write cannot produce this (the CRC
    // frame rejects it first), but the decoder must still hold the
    // line on its own.
    for (size_t cut : {size_t{1}, size_t{8}, w.buffer().size() - 1}) {
        std::string torn = w.buffer().substr(0, cut);
        ByteReader r(torn);
        ShardResult out;
        EXPECT_FALSE(readShardResult(r, out)) << "cut=" << cut;
    }
}

TEST(Collective, MergedUpdateWireFormatRoundTrips)
{
    std::vector<ShardResult> results;
    results.push_back(syntheticShard(0, 0.5, 2, {0.25f, 0.75f}));
    results.push_back(syntheticShard(1, 0.75, 2, {0.5f, 0.125f}));
    MergedUpdate in = mergeShardResults(std::move(results));

    ByteWriter w;
    writeMergedUpdate(w, in);
    ByteReader r(w.buffer());
    MergedUpdate out;
    ASSERT_TRUE(readMergedUpdate(r, out));
    EXPECT_EQ(out.result.loss, in.result.loss);
    EXPECT_EQ(out.result.numEvents, in.result.numEvents);
    EXPECT_EQ(out.grads, in.grads);
    EXPECT_EQ(out.writebacks.size(), in.writebacks.size());
}

// ---------------------------------------------------------------------
// WorkerGroup determinism contract
// ---------------------------------------------------------------------

TEST(WorkerGroup, TrajectoryInvariantAcrossWorkerCounts)
{
    Fixture f;
    // K=4 fixed; 1, 2 and 4 workers must produce bit-identical
    // per-batch losses and final model state. The Cascade policy's
    // feedback loop makes this strict: one differing loss would shift
    // every later batch boundary.
    const RunOutcome w1 = runSharded(f, 1, 4, 2);
    const RunOutcome w2 = runSharded(f, 2, 4, 2);
    const RunOutcome w4 = runSharded(f, 4, 4, 2);
    ASSERT_FALSE(w1.batches.empty());
    expectSameTrajectory(w1, w2);
    expectSameTrajectory(w1, w4);
    EXPECT_EQ(w2.report.workers, 2u);
    EXPECT_EQ(w2.report.shards, 4u);
    EXPECT_EQ(w2.report.workerDeaths, 0u);
}

TEST(WorkerGroup, ShardsDefaultToWorkerCount)
{
    Fixture f;
    // shards=0 resolves K to the worker count — so 2 workers at K=0
    // must equal 1 worker at K=2 (same trajectory), while K=1 is a
    // different trajectory (different slice boundaries).
    const RunOutcome k0 = runSharded(f, 2, 0, 1);
    const RunOutcome k2 = runSharded(f, 1, 2, 1);
    const RunOutcome k1 = runSharded(f, 1, 1, 1);
    expectSameTrajectory(k0, k2);
    EXPECT_EQ(k0.report.shards, 2u);
    EXPECT_NE(k1.finalState, k2.finalState);
}

TEST(WorkerGroup, WorkerDeathRecoversBitIdentically)
{
    Fixture f;
    const RunOutcome ref = runSharded(f, 1, 4, 2);

    // Worker rank 1 of 2 SIGKILLs itself before computing batch 3
    // (forked children inherit the armed plan across fork()). The
    // supervisor must recompute the lost shards, fold them into the
    // survivor, and land on the exact reference bytes.
    fault::Config fc;
    fc.workerKills.push_back({3, 1});
    FaultScope scope(fc);
    const RunOutcome killed = runSharded(f, 2, 4, 2);

    expectSameTrajectory(ref, killed);
    EXPECT_EQ(killed.report.workerDeaths, 1u);
    EXPECT_FALSE(killed.report.interrupted);
}

TEST(WorkerGroup, AllWorkersDeadFallsBackToWorkerLocal)
{
    Fixture f;
    const RunOutcome ref = runSharded(f, 1, 4, 1);

    // Both workers die: the group degrades to worker-local (the
    // master computes every shard itself) and must STILL match the
    // reference — slower, never wrong.
    fault::Config fc;
    fc.workerKills.push_back({2, 0});
    fc.workerKills.push_back({4, 1});
    FaultScope scope(fc);
    const RunOutcome killed = runSharded(f, 2, 4, 1);

    expectSameTrajectory(ref, killed);
    EXPECT_EQ(killed.report.workerDeaths, 2u);
}

TEST(WorkerGroup, RollbackResyncKeepsReplicasInStep)
{
    Fixture f;
    // A NaN loss at batch 3 rolls the master back to its last
    // snapshot, and the resync must carry that restored state to
    // every replica. The reference is the worker-local run (its only
    // worker dies at batch 0), where the master computes every shard
    // from its own state; replicas left stale would compute the
    // batches after the rollback from the wrong memory.
    fault::Config fc;
    fc.nanBatch = 3;
    RunOutcome w1, w2, local;
    {
        FaultScope scope(fc);
        w1 = runSharded(f, 1, 4, 2);
    }
    {
        FaultScope scope(fc);
        w2 = runSharded(f, 2, 4, 2);
    }
    fc.workerKills.push_back({0, 0});
    {
        FaultScope scope(fc);
        local = runSharded(f, 1, 4, 2);
    }
    ASSERT_EQ(local.report.workerDeaths, 1u);
    expectSameTrajectory(local, w1);
    expectSameTrajectory(local, w2);
    for (const RunOutcome *run : {&w1, &w2}) {
        EXPECT_EQ(run->report.workerDeaths, 0u);
        EXPECT_EQ(run->resyncs, 1u);
    }
}

TEST(WorkerGroup, MergeSecondsTimesOnlyTheMerge)
{
    Fixture f;
    // Rank 1 stalls 300 ms before replying to batch 2, far inside the
    // 30 s heartbeat. That wait belongs to the batch, not the merge.
    fault::Config fc;
    fc.workerHangBatch = 2;
    fc.workerHangRank = 1;
    fc.hangMs = 300.0;
    FaultScope scope(fc);
    const RunOutcome out = runSharded(f, 2, 4, 1);
    EXPECT_EQ(out.report.workerDeaths, 0u);
    EXPECT_GT(out.mergeSecondsMax, 0.0);
    EXPECT_LT(out.mergeSecondsMax, 0.15);
}

TEST(WorkerGroup, ResumeUnderDifferentWorkerCount)
{
    Fixture f;
    const std::string ck =
        testing::TempDir() + "shard_resume_ck.bin";
    const RunOutcome ref = runSharded(f, 1, 4, 2);

    // Crash a 2-worker run mid-epoch, resume it with 4 forked
    // workers: checkpoints hold only the master replica, so the same
    // K resumes under any topology and must finish on the reference
    // bytes.
    TrainOptions ck_opts;
    ck_opts.checkpointPath = ck;
    ck_opts.checkpointEvery = 2;
    {
        fault::Config fc;
        fc.crashBatch = 5;
        FaultScope scope(fc);
        const RunOutcome crashed =
            runSharded(f, 2, 4, 2, 7, ck_opts);
        ASSERT_TRUE(crashed.report.interrupted);
    }
    TrainOptions resume_opts = ck_opts;
    resume_opts.resume = true;
    const RunOutcome resumed =
        runSharded(f, 4, 4, 2, 7, resume_opts);

    EXPECT_FALSE(resumed.report.interrupted);
    // The resumed run replays only the tail, so compare final state,
    // not the (shorter) observed trajectory.
    EXPECT_EQ(resumed.finalState, ref.finalState);
}
