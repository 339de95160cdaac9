/**
 * @file
 * Baseline batcher tests: TGL fixed batching, NeutronStream
 * dependency windows and ETC information-loss bounds — partition/
 * progress guarantees plus each policy's defining property.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "core/cascade_batcher.hh"
#include "graph/dataset.hh"
#include "train/batcher.hh"

using namespace cascade;

namespace {

EventSequence
dataset(uint64_t seed = 1, double scale = 200.0)
{
    DatasetSpec spec = wikiSpec(scale);
    Rng rng(seed);
    return generateDataset(spec, rng);
}

/** Drive a batcher across the whole sequence, returning the cuts. */
std::vector<size_t>
run(Batcher &b, size_t n)
{
    b.reset();
    std::vector<size_t> cuts;
    size_t st = 0;
    while (st < n) {
        const size_t ed = b.next(st);
        EXPECT_GT(ed, st);
        EXPECT_LE(ed, n);
        cuts.push_back(ed);
        st = ed;
    }
    return cuts;
}

} // namespace

TEST(FixedBatcher, ExactBatchSizesWithTail)
{
    FixedBatcher b(105, 20);
    auto cuts = run(b, 105);
    ASSERT_EQ(cuts.size(), 6u);
    EXPECT_EQ(cuts[0], 20u);
    EXPECT_EQ(cuts[4], 100u);
    EXPECT_EQ(cuts[5], 105u);
}

TEST(FixedBatcher, NameAndDefaults)
{
    FixedBatcher b(10, 3);
    EXPECT_EQ(b.name(), "TGL");
    EXPECT_DOUBLE_EQ(b.preprocessSeconds(), 0.0);
    EXPECT_EQ(b.stateBytes(), 0u);
}

TEST(NeutronStream, BatchesAreNodeDisjoint)
{
    EventSequence seq = dataset();
    NeutronStreamBatcher b(seq, 64);
    size_t st = 0;
    while (st < seq.size()) {
        const size_t ed = b.next(st);
        // Within a multi-event batch no two events share a node.
        if (ed - st > 1) {
            std::unordered_set<NodeId> nodes;
            for (size_t i = st; i < ed; ++i) {
                ASSERT_TRUE(nodes.insert(seq.events[i].src).second);
                ASSERT_TRUE(nodes.insert(seq.events[i].dst).second);
            }
        }
        st = ed;
    }
}

TEST(NeutronStream, WindowBoundsBatches)
{
    EventSequence seq = dataset();
    NeutronStreamBatcher b(seq, 16);
    size_t st = 0;
    while (st < seq.size()) {
        const size_t ed = b.next(st);
        ASSERT_LE(ed - st, 16u);
        st = ed;
    }
}

TEST(NeutronStream, DependentHeadRunsAlone)
{
    EventSequence seq;
    seq.numNodes = 4;
    // Same pair repeats: every batch after the first event conflicts.
    seq.events = {{0, 1, 1.0}, {0, 1, 2.0}, {0, 1, 3.0}};
    NeutronStreamBatcher b(seq, 10);
    EXPECT_EQ(b.next(0), 1u);
    EXPECT_EQ(b.next(1), 2u);
}

TEST(NeutronStream, ChargesPreprocessingTime)
{
    EventSequence seq = dataset();
    NeutronStreamBatcher b(seq, 64);
    run(b, seq.size());
    EXPECT_GT(b.preprocessSeconds(), 0.0);
}

TEST(Etc, ThresholdComesFromBaseBatchProfile)
{
    EventSequence seq = dataset();
    const size_t base = 32;
    EtcBatcher b(seq, base);
    // Recompute the profile independently.
    size_t expect = 0;
    for (size_t st = 0; st < seq.size(); st += base) {
        const size_t ed = std::min(seq.size(), st + base);
        std::unordered_map<NodeId, size_t> cnt;
        size_t loss = 0;
        for (size_t i = st; i < ed; ++i) {
            if (cnt[seq.events[i].src]++ > 0)
                ++loss;
            if (cnt[seq.events[i].dst]++ > 0)
                ++loss;
        }
        expect = std::max(expect, loss);
    }
    EXPECT_EQ(b.threshold(), expect);
}

TEST(Etc, BatchesRespectInformationLossBound)
{
    EventSequence seq = dataset(2);
    EtcBatcher b(seq, 32);
    size_t st = 0;
    while (st < seq.size()) {
        const size_t ed = b.next(st);
        std::unordered_map<NodeId, size_t> cnt;
        size_t loss = 0;
        for (size_t i = st; i < ed; ++i) {
            if (cnt[seq.events[i].src]++ > 0)
                ++loss;
            if (cnt[seq.events[i].dst]++ > 0)
                ++loss;
        }
        // Single-event batches may exceed (progress guarantee).
        if (ed - st > 1) {
            ASSERT_LE(loss, b.threshold());
        }
        st = ed;
    }
}

TEST(Etc, ExpandsBeyondBaseOnIndependentEvents)
{
    // A stream of node-disjoint events has zero information loss, so
    // ETC keeps expanding past the base size.
    EventSequence seq;
    seq.numNodes = 2000;
    for (int i = 0; i < 500; ++i) {
        seq.events.push_back(
            {static_cast<NodeId>(2 * i),
             static_cast<NodeId>(2 * i + 1),
             static_cast<double>(i)});
    }
    EtcBatcher b(seq, 10);
    EXPECT_EQ(b.next(0), seq.size());
}

TEST(AllBatchers, PartitionTheSequence)
{
    EventSequence seq = dataset(3);
    VectorEventSource src(seq);
    TemporalAdjacency adj(seq);

    FixedBatcher fixed(seq.size(), 32);
    NeutronStreamBatcher ns(seq, 32);
    EtcBatcher etc(seq, 32);
    CascadeBatcher::Options copts;
    copts.baseBatch = 32;
    CascadeBatcher cascade(src, adj, seq.size(), copts);

    for (Batcher *b : std::vector<Batcher *>{&fixed, &ns, &etc,
                                             &cascade}) {
        auto cuts = run(*b, seq.size());
        ASSERT_FALSE(cuts.empty()) << b->name();
        EXPECT_EQ(cuts.back(), seq.size()) << b->name();
        for (size_t i = 1; i < cuts.size(); ++i)
            ASSERT_LT(cuts[i - 1], cuts[i]) << b->name();
    }
}

TEST(CascadeBatcher, NamesReflectConfiguration)
{
    EventSequence seq = dataset(4, 400.0);
    VectorEventSource src(seq);
    TemporalAdjacency adj(seq);
    CascadeBatcher::Options o;
    o.baseBatch = 16;
    CascadeBatcher full(src, adj, seq.size(), o);
    EXPECT_EQ(full.name(), "Cascade");

    o.enableSgFilter = false;
    CascadeBatcher tb(src, adj, seq.size(), o);
    EXPECT_EQ(tb.name(), "Cascade-TB");

    o.enableSgFilter = true;
    o.chunkSize = seq.size() / 2;
    CascadeBatcher ex(src, adj, seq.size(), o);
    EXPECT_EQ(ex.name(), "Cascade_EX");
}

TEST(CascadeBatcher, GrowsBatchesBeyondBase)
{
    EventSequence seq = dataset(5);
    VectorEventSource src(seq);
    TemporalAdjacency adj(seq);
    CascadeBatcher::Options o;
    o.baseBatch = 32;
    CascadeBatcher b(src, adj, seq.size(), o);
    auto cuts = run(b, seq.size());
    const double avg = static_cast<double>(seq.size()) / cuts.size();
    // Adaptive batching must beat the base size on this workload.
    EXPECT_GT(avg, 32.0);
    EXPECT_GT(b.preprocessSeconds(), 0.0);
    EXPECT_GT(b.stateBytes(), 0u);
}

TEST(CascadeBatcher, FeedbackUpdatesStableFlags)
{
    EventSequence seq = dataset(6, 400.0);
    VectorEventSource src(seq);
    TemporalAdjacency adj(seq);
    CascadeBatcher::Options o;
    o.baseBatch = 16;
    CascadeBatcher b(src, adj, seq.size(), o);
    b.reset();

    std::vector<NodeId> nodes = {seq.events[0].src};
    std::vector<double> cos = {0.99};
    BatchFeedback fb;
    fb.updatedNodes = &nodes;
    fb.memCosine = &cos;
    fb.loss = 0.5;
    b.onBatchDone(fb);
    EXPECT_EQ(b.sgFilter().stableCount(), 1u);
    EXPECT_GT(b.stableUpdateRatio(), 0.0);

    b.reset();
    EXPECT_EQ(b.sgFilter().stableCount(), 0u);
}
