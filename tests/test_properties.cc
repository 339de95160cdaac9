/**
 * @file
 * Cross-dataset property sweeps (parameterized): every batching
 * policy partitions every synthetic dataset in order; ETC's
 * information-loss bound, NeutronStream's disjointness and Cascade's
 * endurance invariant hold on all of them; chunked diffusers remain
 * equivalent under pipelining regardless of chunk count.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "core/cascade_batcher.hh"
#include "dependency_oracle.hh"
#include "graph/dataset.hh"
#include "train/batcher.hh"

using namespace cascade;

namespace {

DatasetSpec
specByIndex(int i, double scale)
{
    switch (i) {
      case 0: return wikiSpec(scale);
      case 1: return redditSpec(scale);
      case 2: return moocSpec(scale);
      case 3: return wikiTalkSpec(scale);
      default: return sxFullSpec(scale);
    }
}

struct Generated
{
    DatasetSpec spec;
    EventSequence data;
    VectorEventSource src;
    TemporalAdjacency adj;

    explicit Generated(int which)
        : spec(specByIndex(which, which >= 3 ? 20000.0 : 400.0)),
          data([&] {
              Rng rng(100 + which);
              return generateDataset(spec, rng);
          }()),
          src(data), adj(data)
    {}
};

std::vector<size_t>
drive(Batcher &b, size_t n)
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

class EveryDataset : public ::testing::TestWithParam<int>
{};

TEST_P(EveryDataset, AllPoliciesPartitionInOrder)
{
    Generated g(GetParam());
    const size_t n = g.data.size();

    FixedBatcher fixed(n, g.spec.baseBatch);
    NeutronStreamBatcher ns(g.data, g.spec.baseBatch);
    EtcBatcher etc(g.data, g.spec.baseBatch);
    CascadeBatcher::Options copts;
    copts.baseBatch = g.spec.baseBatch;
    CascadeBatcher cascade(g.src, g.adj, n, copts);

    for (Batcher *b :
         std::vector<Batcher *>{&fixed, &ns, &etc, &cascade}) {
        auto cuts = drive(*b, n);
        ASSERT_EQ(cuts.back(), n) << b->name();
        for (size_t i = 1; i < cuts.size(); ++i)
            ASSERT_LT(cuts[i - 1], cuts[i]) << b->name();
    }
}

TEST_P(EveryDataset, EtcBoundHoldsEverywhere)
{
    Generated g(GetParam());
    EtcBatcher etc(g.data, g.spec.baseBatch);
    size_t st = 0;
    while (st < g.data.size()) {
        const size_t ed = etc.next(st);
        if (ed - st > 1) {
            std::unordered_map<NodeId, size_t> cnt;
            size_t loss = 0;
            for (size_t i = st; i < ed; ++i) {
                if (cnt[g.data.events[i].src]++ > 0)
                    ++loss;
                if (cnt[g.data.events[i].dst]++ > 0)
                    ++loss;
            }
            ASSERT_LE(loss, etc.threshold());
        }
        st = ed;
    }
}

TEST_P(EveryDataset, NeutronStreamDisjointEverywhere)
{
    Generated g(GetParam());
    NeutronStreamBatcher ns(g.data, g.spec.baseBatch);
    size_t st = 0;
    while (st < g.data.size()) {
        const size_t ed = ns.next(st);
        if (ed - st > 1) {
            std::unordered_set<NodeId> nodes;
            for (size_t i = st; i < ed; ++i) {
                ASSERT_TRUE(
                    nodes.insert(g.data.events[i].src).second);
                ASSERT_TRUE(
                    nodes.insert(g.data.events[i].dst).second);
            }
        }
        st = ed;
    }
}

TEST_P(EveryDataset, CascadeEnduranceInvariantEverywhere)
{
    Generated g(GetParam());
    const size_t n = g.data.size();
    DependencyTable table = DependencyTable::build(g.data, g.adj, 0, n);
    TgDiffuser::Options dopts;
    TgDiffuser diffuser(g.data, g.adj, n, dopts);
    const size_t maxr = 6;
    diffuser.setMaxRevisit(maxr);

    std::vector<uint8_t> no_stable;
    size_t st = 0;
    while (st < n) {
        const size_t ed = diffuser.lastTolerableEnd(st, no_stable);
        for (NodeId node : table.activeNodes()) {
            const auto entry = absoluteEntry(table, node);
            const auto lo = std::lower_bound(
                entry.begin(), entry.end(),
                static_cast<EventIdx>(st));
            const auto hi = std::lower_bound(
                entry.begin(), entry.end(),
                static_cast<EventIdx>(ed));
            ASSERT_LE(static_cast<size_t>(hi - lo), maxr + 1)
                << "node " << node << " in [" << st << "," << ed
                << ")";
        }
        st = ed;
    }
}

TEST_P(EveryDataset, ChunkCountDoesNotChangePipelineEquivalence)
{
    Generated g(GetParam());
    const size_t n = g.data.size();
    for (size_t chunks : {2, 5}) {
        TgDiffuser::Options serial_opts, piped_opts;
        serial_opts.chunkSize = piped_opts.chunkSize =
            n / chunks + 1;
        serial_opts.pipeline = false;
        piped_opts.pipeline = true;
        TgDiffuser serial(g.data, g.adj, n, serial_opts);
        TgDiffuser piped(g.data, g.adj, n, piped_opts);
        serial.setMaxRevisit(4);
        piped.setMaxRevisit(4);

        std::vector<uint8_t> no_stable;
        size_t st = 0;
        while (st < n) {
            const size_t a = serial.lastTolerableEnd(st, no_stable);
            const size_t b = piped.lastTolerableEnd(st, no_stable);
            ASSERT_EQ(a, b) << "chunks " << chunks;
            st = a;
        }
    }
}

TEST_P(EveryDataset, EnduranceProfileWithinBatchBounds)
{
    Generated g(GetParam());
    DependencyTable table =
        DependencyTable::build(g.data, g.adj, 0, g.data.size());
    AdaptiveBatchSensor::Options aopts;
    aopts.baseBatch = g.spec.baseBatch;
    AdaptiveBatchSensor abs(aopts);
    EnduranceStats s = abs.profile(g.data, table);
    EXPECT_GE(s.mrMin, 1.0);
    EXPECT_LE(s.mrMax, static_cast<double>(g.spec.baseBatch));
    EXPECT_GE(abs.currentMaxRevisit(), 1u);
}

namespace {

std::string
datasetTestName(const ::testing::TestParamInfo<int> &info)
{
    static const char *names[] = {"WIKI", "REDDIT", "MOOC", "WIKITALK",
                                  "SXFULL"};
    return names[info.param];
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, EveryDataset,
                         ::testing::Range(0, 5), datasetTestName);
