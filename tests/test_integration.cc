/**
 * @file
 * End-to-end integration tests reproducing the paper's headline
 * claims at test scale: Cascade accelerates training without
 * sacrificing validation loss, the SG-Filter ablation (Cascade-TB)
 * sits between TGL and Cascade, naive large batches hurt accuracy,
 * and chunked (Cascade_EX) preprocessing preserves results.
 */

#include <gtest/gtest.h>

#include "core/cascade_batcher.hh"
#include "graph/dataset.hh"
#include "train/trainer.hh"

using namespace cascade;

namespace {

struct Env
{
    DatasetSpec spec;
    EventSequence data;
    VectorEventSource src;
    TemporalAdjacency adj;
    size_t trainEnd;

    explicit Env(double scale = 120.0, uint64_t seed = 77)
        : spec(wikiSpec(scale)),
          data([&] {
              Rng rng(seed);
              return generateDataset(spec, rng);
          }()),
          src(data), adj(data), trainEnd(data.size() * 4 / 5)
    {}
};

TrainReport
runPolicy(Env &env, Batcher &batcher, uint64_t seed = 5,
          size_t epochs = 3)
{
    TgnnModel model(tgnConfig(16), env.spec.numNodes,
                    env.data.featDim(), seed);
    TrainOptions o;
    o.epochs = epochs;
    o.evalBatch = env.spec.baseBatch;
    return trainModel(model, env.src, env.adj, env.trainEnd, batcher,
                      o);
}

} // namespace

TEST(Integration, CascadeSpeedsUpWithoutLossRegression)
{
    Env env;
    FixedBatcher tgl(env.trainEnd, env.spec.baseBatch);
    TrainReport base = runPolicy(env, tgl);

    CascadeBatcher::Options copts;
    copts.baseBatch = env.spec.baseBatch;
    CascadeBatcher cb(env.src, env.adj, env.trainEnd, copts);
    TrainReport cascade = runPolicy(env, cb);

    // Modeled device speedup > 1 (the paper's Figure 10 claim).
    EXPECT_GT(base.deviceSeconds / cascade.totalDeviceSeconds(), 1.1);
    // Validation loss within 15% of the baseline (Figure 11: ~99.4%).
    EXPECT_LT(cascade.valLoss, base.valLoss * 1.15);
}

TEST(Integration, NaiveLargeBatchesHurtAccuracy)
{
    // Figure 12(b): TGL-LB (fixed batches as large as Cascade's
    // average) degrades validation loss where Cascade does not.
    Env env;
    CascadeBatcher::Options copts;
    copts.baseBatch = env.spec.baseBatch;
    CascadeBatcher cb(env.src, env.adj, env.trainEnd, copts);
    TrainReport cascade = runPolicy(env, cb);

    FixedBatcher small(env.trainEnd, env.spec.baseBatch);
    TrainReport base = runPolicy(env, small);

    const size_t big = std::max<size_t>(
        env.spec.baseBatch * 4,
        static_cast<size_t>(cascade.avgBatchSize * 2));
    FixedBatcher lb(env.trainEnd, big);
    TrainReport large = runPolicy(env, lb);

    EXPECT_GT(large.valLoss, base.valLoss);
    EXPECT_LT(cascade.valLoss, large.valLoss);
}

TEST(Integration, SgFilterAblationOrdering)
{
    // §5.3: Cascade-TB already beats TGL; the SG-Filter buys more
    // batch growth on top.
    Env env;
    FixedBatcher tgl(env.trainEnd, env.spec.baseBatch);
    TrainReport base = runPolicy(env, tgl);

    CascadeBatcher::Options tb_opts;
    tb_opts.baseBatch = env.spec.baseBatch;
    tb_opts.enableSgFilter = false;
    CascadeBatcher tb(env.src, env.adj, env.trainEnd, tb_opts);
    TrainReport cascade_tb = runPolicy(env, tb);

    CascadeBatcher::Options full_opts;
    full_opts.baseBatch = env.spec.baseBatch;
    CascadeBatcher full(env.src, env.adj, env.trainEnd, full_opts);
    TrainReport cascade = runPolicy(env, full);

    EXPECT_GT(cascade_tb.avgBatchSize, base.avgBatchSize);
    EXPECT_GE(cascade.avgBatchSize, cascade_tb.avgBatchSize);
    EXPECT_LT(cascade_tb.deviceSeconds, base.deviceSeconds);
}

TEST(Integration, ChunkedPreprocessingPreservesBehaviour)
{
    // §5.5 (Cascade_EX): chunked, pipelined table building must not
    // change training results materially, only preprocessing cost.
    Env env;
    CascadeBatcher::Options mono;
    mono.baseBatch = env.spec.baseBatch;
    CascadeBatcher cb1(env.src, env.adj, env.trainEnd, mono);
    TrainReport full = runPolicy(env, cb1);

    CascadeBatcher::Options chunked = mono;
    chunked.chunkSize = env.trainEnd / 3 + 1;
    CascadeBatcher cb2(env.src, env.adj, env.trainEnd, chunked);
    TrainReport ex = runPolicy(env, cb2);

    EXPECT_LT(ex.valLoss, full.valLoss * 1.2);
    EXPECT_GT(ex.avgBatchSize, env.spec.baseBatch * 0.9);
}

TEST(Integration, StableRatioGrowsWithTraining)
{
    // Figure 5's mechanism: more trained models have more stable
    // memories, so later epochs report a higher stable-update ratio.
    Env env;
    CascadeBatcher::Options copts;
    copts.baseBatch = env.spec.baseBatch;
    CascadeBatcher cb(env.src, env.adj, env.trainEnd, copts);

    TgnnModel model(tgnConfig(16), env.spec.numNodes,
                    env.data.featDim(), 9);
    TrainOptions o;
    o.epochs = 1;
    o.evalBatch = env.spec.baseBatch;
    o.validate = false;
    TrainReport first = trainModel(model, env.src, env.adj,
                                   env.trainEnd, cb, o);
    // Train three more epochs with the same model and batcher.
    o.epochs = 3;
    TrainReport later = trainModel(model, env.src, env.adj,
                                   env.trainEnd, cb, o);
    EXPECT_GT(later.stableUpdateRatio, first.stableUpdateRatio * 0.9);
    EXPECT_GT(later.stableUpdateRatio, 0.1);
}

TEST(Integration, SparseGraphsBenefitMoreThanDenseOnes)
{
    // §5.2: sparser graphs offer more spatial independence; the
    // Cascade batch-growth factor on WIKI-like graphs exceeds the
    // one on REDDIT-like (denser) graphs.
    auto growth = [](const DatasetSpec &spec, uint64_t seed) {
        Rng rng(seed);
        EventSequence data = generateDataset(spec, rng);
        VectorEventSource src(data);
        TemporalAdjacency adj(data);
        const size_t train_end = data.size() * 4 / 5;
        CascadeBatcher::Options copts;
        copts.baseBatch = spec.baseBatch;
        CascadeBatcher cb(src, adj, train_end, copts);
        cb.reset();
        size_t st = 0, batches = 0;
        while (st < train_end) {
            st = cb.next(st);
            ++batches;
        }
        return static_cast<double>(train_end) / batches /
               spec.baseBatch;
    };
    const double wiki = growth(wikiSpec(150.0), 3);
    const double reddit = growth(redditSpec(600.0), 3);
    EXPECT_GT(wiki, 1.0);
    EXPECT_GT(reddit, 1.0);
    EXPECT_GT(wiki, reddit * 0.8);
}
