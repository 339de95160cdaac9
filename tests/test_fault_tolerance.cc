/**
 * @file
 * Fault-tolerance tests: crash-consistent checkpoint/resume with a
 * bit-identical trajectory, numeric-guard rollback and recovery,
 * fault-injected checkpoint write failures, and corrupt/mismatched
 * checkpoint rejection without mutating the live run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/cascade_batcher.hh"
#include "graph/dataset.hh"
#include "obs/metrics.hh"
#include "train/checkpoint.hh"
#include "train/numeric_guard.hh"
#include "train/session.hh"
#include "train/trainer.hh"
#include "util/binio.hh"
#include "util/fault.hh"

using namespace cascade;

namespace {

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

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

TgnnModel
freshModel(const Fixture &f, uint64_t seed = 7)
{
    return TgnnModel(tgnConfig(16), f.spec.numNodes, f.data.featDim(),
                     seed);
}

CascadeBatcher
freshCascade(const Fixture &f, size_t chunkSize = 0)
{
    CascadeBatcher::Options copts;
    copts.baseBatch = f.spec.baseBatch;
    copts.seed = 11;
    copts.chunkSize = chunkSize;
    return CascadeBatcher(f.src, f.adj, f.trainEnd, copts);
}

TrainOptions
baseOptions(const Fixture &f, size_t epochs = 2)
{
    TrainOptions o;
    o.epochs = epochs;
    o.evalBatch = f.spec.baseBatch;
    return o;
}

/** Deep copies of the current parameter tensors. */
std::vector<Tensor>
snapshotParams(const TgnnModel &model)
{
    std::vector<Tensor> out;
    for (const Variable &v : model.parameters())
        out.push_back(v.value());
    return out;
}

void
expectParamsEqual(const TgnnModel &model,
                  const std::vector<Tensor> &snap)
{
    const std::vector<Variable> params = model.parameters();
    ASSERT_EQ(params.size(), snap.size());
    for (size_t p = 0; p < params.size(); ++p) {
        for (size_t i = 0; i < snap[p].size(); ++i) {
            ASSERT_FLOAT_EQ(params[p].value().data()[i],
                            snap[p].data()[i]);
        }
    }
}

/** RAII: disarm fault injection no matter how the test exits. */
struct FaultScope
{
    explicit FaultScope(const fault::Config &c) { fault::configure(c); }
    ~FaultScope() { fault::reset(); }
};

} // namespace

TEST(NumericGuard, TripsOnBadNumbersAndTracksRetries)
{
    NumericGuardOptions o;
    o.maxRetries = 2;
    NumericGuard g(o);
    EXPECT_TRUE(g.admit(0.7, 1.0));
    EXPECT_FALSE(g.admit(std::nan(""), 1.0));
    EXPECT_NE(g.lastReason().find("non-finite loss"),
              std::string::npos);
    EXPECT_FALSE(g.exhausted());
    EXPECT_FALSE(g.admit(0.7, 1e9)); // gradient explosion
    EXPECT_FALSE(g.admit(1e6, 1.0)); // loss explosion
    EXPECT_TRUE(g.exhausted());      // 3 consecutive > maxRetries=2
    EXPECT_EQ(g.trips(), 3u);
    // A healthy step resets the consecutive counter, not the total.
    NumericGuard g2(o);
    EXPECT_FALSE(g2.admit(std::nan(""), 1.0));
    EXPECT_TRUE(g2.admit(0.7, 1.0));
    EXPECT_FALSE(g2.exhausted());
    EXPECT_EQ(g2.trips(), 1u);
}

TEST(NumericGuard, DisabledGuardAdmitsAnything)
{
    NumericGuardOptions o;
    o.enabled = false;
    NumericGuard g(o);
    EXPECT_TRUE(g.admit(std::nan(""), std::nan("")));
    EXPECT_EQ(g.trips(), 0u);
}

TEST(Checkpoint, CursorRoundTrip)
{
    Fixture f(400.0);
    TgnnModel model = freshModel(f);
    FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);

    TrainerCursor cur;
    cur.epoch = 2;
    cur.st = 123;
    cur.batchIndex = 4;
    cur.globalBatch = 17;
    cur.totalBatches = 17;
    cur.totalEvents = 1700;
    cur.epochEvents = 400;
    cur.lossSum = 0.62518;
    cur.completed.resize(2);
    cur.completed[1].trainLoss = 0.5;
    cur.completed[1].batches = 6;

    const std::string payload = encodeCheckpoint(model, batcher, cur);
    TrainerCursor back;
    ASSERT_TRUE(decodeCheckpoint(payload, model, batcher, back));
    EXPECT_EQ(back.epoch, cur.epoch);
    EXPECT_EQ(back.st, cur.st);
    EXPECT_EQ(back.batchIndex, cur.batchIndex);
    EXPECT_EQ(back.globalBatch, cur.globalBatch);
    EXPECT_EQ(back.totalEvents, cur.totalEvents);
    EXPECT_EQ(back.lossSum, cur.lossSum);
    ASSERT_EQ(back.completed.size(), 2u);
    EXPECT_EQ(back.completed[1].trainLoss, 0.5);
    EXPECT_EQ(back.completed[1].batches, 6u);

    // Wall time is not trajectory state: cursors that differ only in
    // a completed epoch's wallSeconds encode to identical bytes, and
    // a restored epoch reads 0.
    TrainerCursor slow = cur;
    slow.completed[1].wallSeconds = 12.5;
    EXPECT_EQ(encodeCheckpoint(model, batcher, slow), payload);
    EXPECT_EQ(back.completed[1].wallSeconds, 0.0);
}

TEST(Checkpoint, PayloadLayoutIsUnchanged)
{
    // Run the Cascade batcher a few batches in, so the batcher and
    // model sections both carry non-trivial state.
    Fixture f(400.0);
    TgnnModel model = freshModel(f);
    CascadeBatcher batcher = freshCascade(f);
    TrainerCursor cur;
    cur.epoch = 1;
    cur.lossSum = 0.375;
    cur.completed.resize(1);
    cur.completed[0].trainLoss = 0.5;
    cur.completed[0].batches = 9;
    while (cur.batchIndex < 3 && cur.st < f.trainEnd) {
        const size_t st = static_cast<size_t>(cur.st);
        const size_t ed = batcher.next(st);
        StepResult r = model.step(f.src, f.adj, st, ed, true);
        BatchFeedback fb;
        fb.batchIndex = static_cast<size_t>(cur.batchIndex);
        fb.st = st;
        fb.ed = ed;
        fb.loss = r.loss;
        fb.updatedNodes = &r.updatedNodes;
        fb.memCosine = &r.memCosine;
        batcher.onBatchDone(fb);
        ++cur.batchIndex;
        ++cur.globalBatch;
        cur.st = ed;
    }
    ASSERT_EQ(cur.batchIndex, 3u);

    // The CSCK v5 layout written field by field, each state blob from
    // its own writer and appended as a length-prefixed string.
    ByteWriter want;
    want.u32(0x4353434b); // "CSCK"
    want.u32(5);
    for (uint64_t v : {cur.epoch, cur.st, cur.batchIndex, cur.globalBatch,
                       cur.totalBatches, cur.totalEvents, cur.epochEvents})
        want.u64(v);
    want.f64(cur.lossSum);
    want.u64(cur.completed.size());
    for (const EpochStats &es : cur.completed) {
        want.f64(es.trainLoss);
        want.u64(es.batches);
        want.f64(es.avgBatchSize);
        want.f64(es.deviceSeconds);
        want.f64(es.stableUpdateRatio);
    }
    want.str(batcher.name());
    ByteWriter batcher_bytes;
    ASSERT_TRUE(batcher.saveState(batcher_bytes));
    want.str(batcher_bytes.buffer());
    ByteWriter model_bytes;
    model.saveTrainingState(model_bytes);
    want.str(model_bytes.buffer());

    EXPECT_EQ(encodeCheckpoint(model, batcher, cur), want.buffer());
}

TEST(Checkpoint, EncodeWritesIntoTheGivenStorage)
{
    // The session encodes each cadence snapshot into the previous
    // one's string: same size, so the same buffer and no allocation,
    // and the same bytes as a fresh encode.
    Fixture f(400.0);
    TgnnModel model = freshModel(f);
    FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
    TrainerCursor cur;
    std::string previous = encodeCheckpoint(model, batcher, cur);
    const char *storage = previous.data();
    model.step(f.src, f.adj, 0, f.spec.baseBatch, true);
    cur.globalBatch = 1;
    const std::string next =
        encodeCheckpoint(model, batcher, cur, std::move(previous));
    EXPECT_EQ(next.data(), storage);
    EXPECT_TRUE(next == encodeCheckpoint(model, batcher, cur));
}

TEST(Checkpoint, CascadeBatcherSectionIsUnderTwoBytesPerNode)
{
    // ABS plus one SG-Filter flag per node: the diffuser writes
    // nothing, since its lookup state is rebuilt from the batch start.
    DatasetSpec spec = wikiTalkSpec(2000.0);
    Rng rng(5);
    const EventSequence seq = generateDataset(spec, rng);
    ASSERT_GE(seq.numNodes, 1000u);
    const VectorEventSource src(seq);
    const TemporalAdjacency adj(seq);
    CascadeBatcher::Options copts;
    copts.baseBatch = spec.baseBatch;
    CascadeBatcher batcher(src, adj, seq.size() * 4 / 5, copts);
    batcher.next(0);
    ByteWriter w;
    ASSERT_TRUE(batcher.saveState(w));
    EXPECT_LT(w.size(), 2 * seq.numNodes);
}

TEST(Checkpoint, OtherFormatVersionIsRefused)
{
    Fixture f(400.0);
    TgnnModel model = freshModel(f);
    CascadeBatcher batcher = freshCascade(f);
    TrainerCursor cur;
    std::string payload = encodeCheckpoint(model, batcher, cur);
    TrainerCursor out;
    ASSERT_TRUE(decodeCheckpoint(payload, model, batcher, out));
    // Bytes 4..7 hold the little-endian version; v4 wrote each model
    // component with its own serializer and has no converter.
    payload[4] = 4;
    EXPECT_FALSE(decodeCheckpoint(payload, model, batcher, out));
}

TEST(Checkpoint, CorruptOrMismatchedPayloadLeavesTargetsUntouched)
{
    Fixture f(400.0);
    TgnnModel model = freshModel(f);
    FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
    TrainerCursor cur;
    const std::string payload = encodeCheckpoint(model, batcher, cur);

    const std::vector<Tensor> before = snapshotParams(model);
    TrainerCursor out;
    out.epoch = 99;

    // Truncation at various depths.
    for (size_t keep : {size_t(3), size_t(20), payload.size() - 1}) {
        EXPECT_FALSE(decodeCheckpoint(payload.substr(0, keep), model,
                                      batcher, out));
    }
    // Wrong magic.
    std::string bad = payload;
    bad[0] = 'X';
    EXPECT_FALSE(decodeCheckpoint(bad, model, batcher, out));
    // Wrong batching policy.
    NeutronStreamBatcher other(f.data, f.spec.baseBatch, f.trainEnd);
    EXPECT_FALSE(decodeCheckpoint(payload, model, other, out));
    // Wrong model shape.
    TgnnModel wide(tgnConfig(32), f.spec.numNodes, f.data.featDim(), 7);
    EXPECT_FALSE(decodeCheckpoint(payload, wide, batcher, out));

    expectParamsEqual(model, before);
    EXPECT_EQ(out.epoch, 99u); // cursor untouched by failed decodes

    // A model section that fits with a batcher section that does not:
    // the target's Cascade batcher runs over another event sequence,
    // whose node count SG-Filter refuses after ABS has been read.
    // Neither the model, nor the batcher, nor the cursor may change.
    const Fixture g(100.0);
    ASSERT_NE(g.data.size(), f.data.size());
    ASSERT_NE(g.spec.numNodes, f.spec.numNodes);
    CascadeBatcher written = freshCascade(f);
    const std::string mixed = encodeCheckpoint(model, written, cur);
    TgnnModel target = freshModel(f, /*seed=*/8);
    CascadeBatcher elsewhere = freshCascade(g);
    const auto stateBytes = [&] {
        ByteWriter mw, bw;
        target.saveTrainingState(mw);
        elsewhere.saveState(bw);
        return std::make_pair(mw.take(), bw.take());
    };
    const auto untouched = stateBytes();
    EXPECT_FALSE(decodeCheckpoint(mixed, target, elsewhere, out));
    EXPECT_TRUE(stateBytes() == untouched);
    EXPECT_EQ(out.epoch, 99u);
}

TEST(Checkpoint, FileLevelCorruptionIsRejected)
{
    Fixture f(400.0);
    TgnnModel model = freshModel(f);
    FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
    TrainerCursor cur;
    const std::string payload = encodeCheckpoint(model, batcher, cur);
    const std::string path = tmpPath("ckpt_corrupt.bin");
    ASSERT_TRUE(writeFileAtomic(path, payload));

    std::string loaded;
    ASSERT_TRUE(readFileValidated(path, loaded));
    EXPECT_EQ(loaded, payload);

    // Flip one payload byte on disk: the CRC32 footer catches it.
    std::string raw;
    ASSERT_TRUE(readFileValidated(path, raw));
    std::FILE *fp = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(fp, nullptr);
    std::fseek(fp, 40, SEEK_SET);
    const int c = std::fgetc(fp);
    std::fseek(fp, 40, SEEK_SET);
    std::fputc(c ^ 0x40, fp);
    std::fclose(fp);
    EXPECT_FALSE(readFileValidated(path, loaded));
    EXPECT_FALSE(readFileValidated(tmpPath("ckpt_missing.bin"),
                                   loaded));
}

TEST(FaultTolerance, CrashAndResumeIsBitIdenticalFixedBatcher)
{
    Fixture f;
    const std::string path = tmpPath("ckpt_fixed.bin");
    fault::reset();

    // Uninterrupted reference run.
    TgnnModel ref = freshModel(f);
    FixedBatcher rb(f.trainEnd, f.spec.baseBatch);
    TrainReport want = trainModel(ref, f.src, f.adj, f.trainEnd, rb,
                                  baseOptions(f));
    ASSERT_GE(want.totalBatches, 6u);

    // Same run, crashing mid-epoch past at least one snapshot. The
    // crash batch is itself a cadence point (global batch g ends a
    // cadence when (g + 1) % every == 0), so the crash returns while
    // that snapshot's background write is in flight.
    TrainOptions copts = baseOptions(f);
    copts.checkpointPath = path;
    copts.checkpointEvery = 2;
    TgnnModel crashed = freshModel(f);
    FixedBatcher cb(f.trainEnd, f.spec.baseBatch);
    {
        const uint64_t crash = (want.totalBatches / 2) | 1;
        fault::Config fc;
        fc.crashBatch = static_cast<long>(crash);
        FaultScope scope(fc);
        TrainingSession session(crashed, f.src, f.adj, f.trainEnd, cb,
                                copts);
        TrainReport r = session.run();
        ASSERT_TRUE(r.interrupted);
        EXPECT_LT(r.totalBatches, want.totalBatches);

        // run() returned with the session still alive: the crash
        // batch's generation is already the newest on disk.
        std::string payload;
        ASSERT_TRUE(readFileValidated(path, payload));
        TgnnModel probe = freshModel(f);
        FixedBatcher pb(f.trainEnd, f.spec.baseBatch);
        TrainerCursor on_disk;
        ASSERT_TRUE(decodeCheckpoint(payload, probe, pb, on_disk));
        EXPECT_EQ(on_disk.globalBatch, crash + 1);
    }

    // Resume in a fresh process-equivalent: new model, new batcher.
    TrainOptions ropts = copts;
    ropts.resume = true;
    TgnnModel resumed = freshModel(f);
    FixedBatcher nb(f.trainEnd, f.spec.baseBatch);
    TrainReport got = trainModel(resumed, f.src, f.adj, f.trainEnd,
                                 nb, ropts);
    EXPECT_TRUE(got.resumed);
    EXPECT_FALSE(got.interrupted);

    // Bit-identical trajectory: exact loss equality, no tolerance.
    EXPECT_EQ(got.valLoss, want.valLoss);
    ASSERT_EQ(got.epochs.size(), want.epochs.size());
    for (size_t e = 0; e < want.epochs.size(); ++e) {
        EXPECT_EQ(got.epochs[e].trainLoss, want.epochs[e].trainLoss);
        EXPECT_EQ(got.epochs[e].batches, want.epochs[e].batches);
    }
    EXPECT_EQ(got.totalBatches, want.totalBatches);
}

TEST(FaultTolerance, CrashAndResumeIsBitIdenticalCascade)
{
    Fixture f;
    const std::string path = tmpPath("ckpt_cascade.bin");
    fault::reset();

    // Unchunked Cascade, then Cascade_EX with three chunks: a resumed
    // run re-derives the chunk and the lookup state from its st.
    for (size_t chunk : {size_t(0), f.trainEnd / 3}) {
        SCOPED_TRACE("chunkSize " + std::to_string(chunk));
        TgnnModel ref = freshModel(f);
        CascadeBatcher rb = freshCascade(f, chunk);
        std::vector<BatchRecord> seen;
        TrainReport want;
        {
            TrainingSession session(ref, f.src, f.adj, f.trainEnd, rb,
                                    baseOptions(f));
            session.setBatchObserver(
                [&](const BatchRecord &rec) { seen.push_back(rec); });
            want = session.run();
        }
        ASSERT_GE(want.totalBatches, 4u);

        // Crash mid-way through the second epoch, which for the
        // chunked run is past its first chunk.
        auto crash = std::find_if(seen.begin(), seen.end(),
                                  [&](const BatchRecord &rec) {
                                      return rec.epoch == 1 &&
                                          rec.st >= f.trainEnd / 2;
                                  });
        ASSERT_NE(crash, seen.end());
        EXPECT_GE(crash->st, chunk);

        TrainOptions copts = baseOptions(f);
        copts.checkpointPath = path;
        copts.checkpointEvery = 1;
        TgnnModel crashed = freshModel(f);
        CascadeBatcher cb = freshCascade(f, chunk);
        {
            fault::Config fc;
            fc.crashBatch = static_cast<long>(crash->globalBatch);
            FaultScope scope(fc);
            TrainReport r = trainModel(crashed, f.src, f.adj, f.trainEnd,
                                       cb, copts);
            ASSERT_TRUE(r.interrupted);
        }

        TrainOptions ropts = copts;
        ropts.resume = true;
        TgnnModel resumed = freshModel(f);
        CascadeBatcher nb = freshCascade(f, chunk);
        TrainReport got = trainModel(resumed, f.src, f.adj, f.trainEnd,
                                     nb, ropts);
        EXPECT_TRUE(got.resumed);

        // The adaptive policy's schedule (ABS decays, SG-Filter flags,
        // the diffuser's chunk and keys) must resume exactly too, or
        // the batch boundaries — and with them every loss — drift.
        EXPECT_EQ(got.valLoss, want.valLoss);
        ASSERT_EQ(got.epochs.size(), want.epochs.size());
        for (size_t e = 0; e < want.epochs.size(); ++e) {
            EXPECT_EQ(got.epochs[e].trainLoss, want.epochs[e].trainLoss);
            EXPECT_EQ(got.epochs[e].batches, want.epochs[e].batches);
            EXPECT_EQ(got.epochs[e].avgBatchSize,
                      want.epochs[e].avgBatchSize);
        }
        EXPECT_EQ(got.totalBatches, want.totalBatches);
    }
}

TEST(FaultTolerance, NanInjectionRollsBackAndRecovers)
{
    Fixture f;
    fault::Config fc;
    fc.nanBatch = 3;
    FaultScope scope(fc);

    TrainOptions opts = baseOptions(f);
    opts.checkpointEvery = 2; // rollback grain
    TgnnModel model = freshModel(f);
    CascadeBatcher batcher = freshCascade(f);
    TrainReport r = trainModel(model, f.src, f.adj, f.trainEnd,
                               batcher, opts);

    // One trip, and it rolled back: the run went on to finish.
    EXPECT_EQ(r.guardTrips, 1u);
    EXPECT_FALSE(r.interrupted);
    EXPECT_TRUE(std::isfinite(r.valLoss));
    for (const EpochStats &es : r.epochs)
        EXPECT_TRUE(std::isfinite(es.trainLoss));
    // The rollback tightened the Max_r ceiling.
    EXPECT_LT(batcher.abs().ceilingScale(), 1.0);
}

TEST(FaultTolerance, CheckpointWriteFailureDoesNotKillTraining)
{
    Fixture f(400.0);
    const std::string path = tmpPath("ckpt_failwrite.bin");
    std::remove(path.c_str());
    fault::Config fc;
    fc.failWriteNth = 1; // first snapshot write fails, rest succeed
    FaultScope scope(fc);

    TrainOptions opts = baseOptions(f, 1);
    opts.checkpointPath = path;
    opts.checkpointEvery = 1;
    TgnnModel model = freshModel(f);
    FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
    TrainReport r = trainModel(model, f.src, f.adj, f.trainEnd,
                               batcher, opts);
    EXPECT_FALSE(r.interrupted);
    EXPECT_GE(fault::injectedCount(), 1u);
    // Later snapshots still committed a valid checkpoint.
    std::string payload;
    EXPECT_TRUE(readFileValidated(path, payload));
}

TEST(FaultTolerance, CheckpointWriteRetrySucceedsAndIsCounted)
{
    Fixture f(400.0);
    const std::string path = tmpPath("ckpt_retrywrite.bin");
    std::remove(path.c_str());
    fault::Config fc;
    fc.failWriteNth = 1;
    fc.failWriteCount = 1; // first write fails, the retry lands
    FaultScope scope(fc);

    TrainOptions opts = baseOptions(f, 1);
    opts.checkpointPath = path;
    opts.checkpointEvery = 2;
    opts.retry.baseDelayMs = 0.0;
    TgnnModel model = freshModel(f);
    FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
    TrainReport r = trainModel(model, f.src, f.adj, f.trainEnd,
                               batcher, opts);

    EXPECT_FALSE(r.interrupted);
    EXPECT_FALSE(r.checkpointingDisabled);
    EXPECT_EQ(r.checkpointWriteFailures, 1u);
    EXPECT_EQ(r.checkpointRetries, 1u);
    std::string payload;
    EXPECT_TRUE(readFileValidated(path, payload));
}

TEST(FaultTolerance, PersistentWriteFailuresDisableCheckpointing)
{
    Fixture f(400.0);
    const std::string path = tmpPath("ckpt_alwaysfail.bin");
    std::remove(path.c_str());
    fault::Config fc;
    fc.failWriteNth = 1;
    fc.failWriteCount = 1000000; // the disk never recovers
    FaultScope scope(fc);

    TrainOptions opts = baseOptions(f, 1);
    opts.checkpointPath = path;
    opts.checkpointEvery = 1;
    opts.retry.maxRetries = 2;
    opts.retry.baseDelayMs = 0.0;
    TgnnModel model = freshModel(f);
    FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
    TrainReport r = trainModel(model, f.src, f.adj, f.trainEnd,
                               batcher, opts);

    // Durability degraded; the training run itself finished.
    EXPECT_FALSE(r.interrupted);
    EXPECT_TRUE(r.checkpointingDisabled);
    EXPECT_GE(r.degradations, 1u);
    EXPECT_EQ(r.degradedMode, "checkpointing-disabled");
    // One supervised write: initial attempt + 2 retries, all failed.
    EXPECT_EQ(r.checkpointRetries, 2u);
    EXPECT_EQ(r.checkpointWriteFailures, 3u);
    EXPECT_TRUE(std::isfinite(r.valLoss));
    std::string payload;
    EXPECT_FALSE(readFileValidated(path, payload));
}

TEST(FaultTolerance, GuardExhaustionFailsLoudly)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Fixture f(400.0);
    TrainOptions opts = baseOptions(f, 1);
    opts.guard.lossLimit = -1.0; // every batch "explodes"
    opts.guard.maxRetries = 2;
    EXPECT_EXIT(
        {
            TgnnModel model = freshModel(f);
            FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
            trainModel(model, f.src, f.adj, f.trainEnd, batcher,
                       opts);
        },
        ::testing::ExitedWithCode(1), "retry budget");
}

// -------------------------------------------------------------------
// Multi-generation checkpoint rotation and newest-valid recovery.
// -------------------------------------------------------------------

namespace {

/** Truncate `path` to its first `keep` bytes (simulated torn file). */
void
truncateFileTo(const std::string &path, size_t keep)
{
    std::string data;
    {
        std::FILE *fp = std::fopen(path.c_str(), "rb");
        ASSERT_NE(fp, nullptr);
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, fp)) > 0)
            data.append(buf, n);
        ASSERT_EQ(std::fclose(fp), 0);
    }
    ASSERT_LT(keep, data.size());
    std::FILE *fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    ASSERT_EQ(std::fwrite(data.data(), 1, keep, fp), keep);
    ASSERT_EQ(std::fclose(fp), 0);
}

/** Remove every file of a checkpoint generation family: TempDir
 *  persists across test-binary runs, so stale generations from a
 *  previous invocation would otherwise leak into the scan. */
void
cleanFamily(const std::string &path, size_t keep = 8)
{
    ASSERT_TRUE(removeFileIfExists(checkpointStagePath(path)));
    ASSERT_TRUE(removeFileIfExists(checkpointMarkerPath(path)));
    for (size_t g = 0; g < keep; ++g) {
        ASSERT_TRUE(
            removeFileIfExists(checkpointGenerationPath(path, g)));
    }
}

/** encodeCheckpoint with only the global batch varying. */
std::string
payloadAtBatch(const Fixture &f, TgnnModel &model, Batcher &batcher,
               uint64_t gb)
{
    TrainerCursor cur;
    cur.epoch = 1;
    cur.globalBatch = gb;
    cur.totalBatches = gb;
    (void)f;
    return encodeCheckpoint(model, batcher, cur);
}

} // namespace

TEST(CheckpointRotation, KeepsNGenerationsNewestFirst)
{
    // A directory of its own, so the listing below sees this family
    // only (TempDir persists across test-binary runs).
    const std::filesystem::path dir =
        std::filesystem::path(tmpPath("rot_family"));
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(std::filesystem::create_directory(dir));
    const std::string path = (dir / "rot.bin").string();
    fault::reset();

    // Five commits with keep=3: only the newest three survive, in
    // head, .1, .2 order, and they are the only files the family
    // leaves on disk.
    std::vector<std::string> payloads;
    for (int i = 0; i < 5; ++i)
        payloads.push_back("payload-" + std::to_string(i));
    for (const std::string &p : payloads)
        ASSERT_TRUE(saveCheckpointRotated(path, p, 3));

    std::string back;
    ASSERT_TRUE(readFileValidated(checkpointGenerationPath(path, 0),
                                  back));
    EXPECT_EQ(back, payloads[4]);
    ASSERT_TRUE(readFileValidated(checkpointGenerationPath(path, 1),
                                  back));
    EXPECT_EQ(back, payloads[3]);
    ASSERT_TRUE(readFileValidated(checkpointGenerationPath(path, 2),
                                  back));
    EXPECT_EQ(back, payloads[2]);
    EXPECT_FALSE(fileExists(checkpointGenerationPath(path, 3)));
    EXPECT_FALSE(fileExists(checkpointStagePath(path)));

    std::set<std::string> listed;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        listed.insert(entry.path().filename().string());
    EXPECT_EQ(listed,
              (std::set<std::string>{"rot.bin", "rot.bin.1", "rot.bin.2"}));
}

TEST(CheckpointRotation, StageFailureLeavesGenerationsUntouched)
{
    const std::string path = tmpPath("rot_fail.bin");
    fault::reset();
    cleanFamily(path);
    ASSERT_TRUE(saveCheckpointRotated(path, "good-head", 3));
    ASSERT_TRUE(saveCheckpointRotated(path, "newer-head", 3));

    // The stage write fails: no rotation may happen, both committed
    // generations must still be exactly where they were.
    {
        fault::Config fc;
        fc.failWriteNth = 1;
        FaultScope scope(fc);
        EXPECT_FALSE(saveCheckpointRotated(path, "doomed", 3));
    }
    std::string back;
    ASSERT_TRUE(readFileValidated(checkpointGenerationPath(path, 0),
                                  back));
    EXPECT_EQ(back, "newer-head");
    ASSERT_TRUE(readFileValidated(checkpointGenerationPath(path, 1),
                                  back));
    EXPECT_EQ(back, "good-head");
    EXPECT_FALSE(fileExists(checkpointGenerationPath(path, 2)));
}

TEST(CheckpointRotation, ResumeScanSkipsCorruptNewest)
{
    Fixture f(400.0);
    TgnnModel model = freshModel(f);
    FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
    const std::string path = tmpPath("scan.bin");
    fault::reset();
    cleanFamily(path);

    for (uint64_t gb : {1, 2, 3}) {
        ASSERT_TRUE(saveCheckpointRotated(
            path, payloadAtBatch(f, model, batcher, gb), 3));
    }
    // Tear the newest generation: recovery must fall back to the
    // previous one (global batch 2), counting the skip.
    truncateFileTo(checkpointGenerationPath(path, 0), 60);

    obs::MetricsRegistry metrics;
    TrainerCursor cur;
    const ResumeScan scan = resumeFromNewestValid(
        path, 3, model, batcher, cur, &metrics);
    EXPECT_EQ(scan.outcome, ResumeScan::Outcome::Resumed);
    EXPECT_EQ(scan.generation, 1u);
    EXPECT_EQ(scan.corruptSkipped, 1u);
    EXPECT_EQ(scan.file, checkpointGenerationPath(path, 1));
    EXPECT_EQ(cur.globalBatch, 2u);
    EXPECT_EQ(metrics.counter("checkpoint.corrupt_skipped").value(),
              1u);
    EXPECT_EQ(metrics.gauge("checkpoint.recovered_generation").value(),
              1.0);
}

TEST(CheckpointRotation, StagedArtifactIsTriedFirst)
{
    Fixture f(400.0);
    TgnnModel model = freshModel(f);
    FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
    const std::string path = tmpPath("staged.bin");
    fault::reset();
    cleanFamily(path);

    // Simulate a SIGKILL between the stage write and the promote
    // rename: the head holds batch 1, the stage holds newer batch 2.
    ASSERT_TRUE(saveCheckpointRotated(
        path, payloadAtBatch(f, model, batcher, 1), 3));
    ASSERT_TRUE(writeFileAtomic(checkpointStagePath(path),
                                payloadAtBatch(f, model, batcher, 2)));

    TrainerCursor cur;
    const ResumeScan scan =
        resumeFromNewestValid(path, 3, model, batcher, cur, nullptr);
    EXPECT_EQ(scan.outcome, ResumeScan::Outcome::Resumed);
    EXPECT_EQ(scan.file, checkpointStagePath(path));
    // The stage slot scans as generation 0 — the index the
    // staged-recovery warning now names.
    EXPECT_EQ(scan.generation, 0u);
    EXPECT_TRUE(scan.stagedRecovery);
    EXPECT_EQ(cur.globalBatch, 2u);
}

TEST(CheckpointRotation, NoFilesVsAllCorruptOutcomes)
{
    Fixture f(400.0);
    TgnnModel model = freshModel(f);
    FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
    const std::string path = tmpPath("outcomes.bin");
    fault::reset();
    cleanFamily(path);

    EXPECT_FALSE(fileExists(checkpointStagePath(path)));
    for (size_t g = 0; g < 3; ++g)
        EXPECT_FALSE(fileExists(checkpointGenerationPath(path, g)));
    TrainerCursor cur;
    EXPECT_EQ(resumeFromNewestValid(path, 3, model, batcher, cur,
                                    nullptr)
                  .outcome,
              ResumeScan::Outcome::NoCheckpoint);

    // One generation exists but is torn: that is AllCorrupt — the
    // caller must fail loudly, never silently start fresh.
    ASSERT_TRUE(saveCheckpointRotated(
        path, payloadAtBatch(f, model, batcher, 1), 3));
    EXPECT_TRUE(fileExists(checkpointGenerationPath(path, 0)));
    truncateFileTo(checkpointGenerationPath(path, 0), 60);
    const ResumeScan scan =
        resumeFromNewestValid(path, 3, model, batcher, cur, nullptr);
    EXPECT_EQ(scan.outcome, ResumeScan::Outcome::AllCorrupt);
    EXPECT_EQ(scan.corruptSkipped, 1u);
}

TEST(FaultTolerance, TornNewestGenerationResumesFromOlderBitIdentical)
{
    Fixture f;
    const std::string path = tmpPath("ckpt_torn_gen.bin");
    fault::reset();
    cleanFamily(path);

    TgnnModel ref = freshModel(f);
    FixedBatcher rb(f.trainEnd, f.spec.baseBatch);
    TrainReport want = trainModel(ref, f.src, f.adj, f.trainEnd, rb,
                                  baseOptions(f));
    ASSERT_GE(want.totalBatches, 6u);

    TrainOptions copts = baseOptions(f);
    copts.checkpointPath = path;
    copts.checkpointEvery = 1;
    copts.checkpointKeep = 3;
    TgnnModel crashed = freshModel(f);
    FixedBatcher cb(f.trainEnd, f.spec.baseBatch);
    {
        fault::Config fc;
        fc.crashBatch = static_cast<long>(want.totalBatches / 2 + 1);
        FaultScope scope(fc);
        TrainReport r = trainModel(crashed, f.src, f.adj, f.trainEnd,
                                   cb, copts);
        ASSERT_TRUE(r.interrupted);
    }

    // The newest generation is torn after the fact (power loss, disk
    // error). Resume must fall back one generation and — because the
    // trajectory is deterministic — still land on the exact same
    // final state as the uninterrupted run.
    truncateFileTo(checkpointGenerationPath(path, 0), 100);
    TrainOptions ropts = copts;
    ropts.resume = true;
    TgnnModel resumed = freshModel(f);
    FixedBatcher nb(f.trainEnd, f.spec.baseBatch);
    TrainReport got = trainModel(resumed, f.src, f.adj, f.trainEnd,
                                 nb, ropts);
    EXPECT_TRUE(got.resumed);
    EXPECT_EQ(got.resumedGeneration, 1u);
    EXPECT_EQ(got.corruptSkippedOnResume, 1u);
    EXPECT_GE(got.degradations, 1u); // checkpoint-fallback rung
    EXPECT_EQ(got.degradedMode, "checkpoint-fallback");

    EXPECT_EQ(got.valLoss, want.valLoss);
    ASSERT_EQ(got.epochs.size(), want.epochs.size());
    for (size_t e = 0; e < want.epochs.size(); ++e) {
        EXPECT_EQ(got.epochs[e].trainLoss, want.epochs[e].trainLoss);
        EXPECT_EQ(got.epochs[e].batches, want.epochs[e].batches);
    }
    EXPECT_EQ(got.totalBatches, want.totalBatches);
}

TEST(FaultTolerance, ResumeIfPossibleStartsFreshWithoutFiles)
{
    Fixture f(400.0);
    const std::string path = tmpPath("ckpt_auto.bin");
    fault::reset();
    cleanFamily(path);

    // --resume-auto semantics: nothing on disk means a fresh start,
    // not a fatal error — the contract a blind process-level
    // relauncher (tools/chaos_kill) depends on.
    TrainOptions opts = baseOptions(f, 1);
    opts.checkpointPath = path;
    opts.checkpointEvery = 1;
    opts.resume = true;
    opts.resumeIfPossible = true;
    TgnnModel model = freshModel(f);
    FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
    TrainReport r = trainModel(model, f.src, f.adj, f.trainEnd,
                               batcher, opts);
    EXPECT_FALSE(r.resumed);
    EXPECT_FALSE(r.interrupted);
    EXPECT_GT(r.totalBatches, 0u);
}
