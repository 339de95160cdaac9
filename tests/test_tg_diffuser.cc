/**
 * @file
 * TG-Diffuser tests (Algorithm 3): batch-by-batch agreement with a
 * definition-level oracle over the brute-force table (also under Max_r
 * changes and backward jumps), progress/
 * partition guarantees, the Max_r endurance invariant, stable-node
 * bypass, the Figure 7(b)/8(b) worked examples, chunk capping and
 * epoch reset.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "core/dependency_table.hh"
#include "core/tg_diffuser.hh"
#include "dependency_oracle.hh"
#include "graph/dataset.hh"

using namespace cascade;

namespace {

/** The Figure 7 example sequence (see test_dependency_table.cc). */
EventSequence
figure7Sequence()
{
    EventSequence seq;
    seq.numNodes = 14;
    const std::vector<std::pair<NodeId, NodeId>> edges = {
        {1, 2}, {1, 7}, {1, 8}, {1, 9}, {10, 11}, {10, 12},
        {10, 13}, {10, 4}, {1, 3}, {1, 5}, {1, 6}, {3, 4},
    };
    double t = 0.0;
    for (auto [s, d] : edges)
        seq.events.push_back({s, d, t += 1.0});
    return seq;
}

std::vector<uint8_t> noStable;

/** Relevant-event count of node n within [st, ed) per the table. */
size_t
relevantInBatch(const DependencyTable &table, NodeId n, size_t st,
                size_t ed)
{
    const auto e = absoluteEntry(table, n);
    const auto lo = std::lower_bound(e.begin(), e.end(),
                                     static_cast<EventIdx>(st));
    const auto hi = std::lower_bound(e.begin(), e.end(),
                                     static_cast<EventIdx>(ed));
    return static_cast<size_t>(hi - lo);
}

/**
 * Algorithm 3 from its definition, for the batch starting at `st` in
 * the chunk [lo, hi) whose brute-force table is `table`: e is the
 * smallest (Max_r+1)-th relevant event at or after st over the
 * non-stable nodes; the end is min(hi, e+1), or hi without such an e,
 * then raised to at least st+1.
 */
size_t
oracleEnd(const std::vector<std::set<EventIdx>> &table, size_t st,
          size_t hi, size_t maxr, const std::vector<uint8_t> &stable)
{
    size_t ed = hi;
    for (size_t n = 0; n < table.size(); ++n) {
        if (stable[n])
            continue;
        const auto &events = table[n];
        auto it = events.lower_bound(static_cast<EventIdx>(st));
        if (static_cast<size_t>(std::distance(it, events.end())) <= maxr)
            continue;
        std::advance(it, maxr);
        ed = std::min(ed, static_cast<size_t>(*it) + 1);
    }
    return std::max(ed, st + 1);
}

} // namespace

TEST(TgDiffuser, LastTolerableEndMatchesDefinitionOracle)
{
    struct Graph
    {
        DatasetSpec spec;
        uint64_t seed;
    };
    const Graph graphs[] = {{wikiSpec(300.0), 1},
                            {redditSpec(800.0), 2},
                            {moocSpec(600.0), 3}};
    for (const Graph &g : graphs) {
        Rng gen(g.seed);
        const EventSequence seq = generateDataset(g.spec, gen);
        const TemporalAdjacency adj(seq);
        const size_t train_end = seq.size() * 4 / 5;
        for (size_t chunk_size : {size_t(0), train_end / 5}) {
            // Brute-force tables of the chunks the diffuser will use.
            const size_t span = chunk_size == 0 ? train_end : chunk_size;
            std::vector<std::pair<size_t, size_t>> bounds;
            std::vector<std::vector<std::set<EventIdx>>> tables;
            for (size_t lo = 0; lo < train_end; lo += span) {
                bounds.emplace_back(lo, std::min(train_end, lo + span));
                tables.push_back(
                    bruteForceTable(seq, lo, bounds.back().second));
            }
            for (size_t maxr : {1, 2, 4, 8}) {
                for (bool pipeline : {false, true}) {
                    SCOPED_TRACE(::testing::Message()
                                 << g.spec.name << " chunk=" << chunk_size
                                 << " maxr=" << maxr
                                 << " pipeline=" << pipeline);
                    TgDiffuser::Options opts;
                    opts.chunkSize = chunk_size;
                    opts.pipeline = pipeline;
                    TgDiffuser diffuser(seq, adj, train_end, opts);
                    diffuser.setMaxRevisit(maxr);
                    ASSERT_EQ(diffuser.numChunks(), bounds.size());

                    Rng draw(g.seed * 131 + maxr);
                    std::vector<uint8_t> stable(seq.numNodes, 0);
                    size_t st = 0, c = 0;
                    while (st < train_end) {
                        // A fresh stable mask for every batch.
                        for (uint8_t &flag : stable)
                            flag = draw.bernoulli(0.25) ? 1 : 0;
                        while (st >= bounds[c].second)
                            ++c;
                        const size_t want = oracleEnd(
                            tables[c], st, bounds[c].second, maxr, stable);
                        const size_t ed =
                            diffuser.lastTolerableEnd(st, stable);
                        ASSERT_EQ(ed, want) << "batch at " << st;
                        st = ed;
                    }
                }
            }
        }
    }
}

TEST(TgDiffuser, LastTolerableEndMatchesOracleAcrossMaxrChangesAndJumps)
{
    // The incremental lookup against the same oracle, with the calls
    // a live run makes besides "the next batch": ABS redrawing Max_r
    // (~20% of batches) and rollbacks jumping back to an earlier
    // batch start (~10%), into an earlier chunk too.
    struct Graph
    {
        DatasetSpec spec;
        uint64_t seed;
    };
    const Graph graphs[] = {{wikiSpec(300.0), 1},
                            {redditSpec(800.0), 2},
                            {moocSpec(600.0), 3}};
    size_t cross_chunk_jumps = 0;
    for (const Graph &g : graphs) {
        Rng gen(g.seed);
        const EventSequence seq = generateDataset(g.spec, gen);
        const TemporalAdjacency adj(seq);
        const size_t train_end = seq.size() * 4 / 5;
        for (size_t chunk_size : {size_t(0), train_end / 5}) {
            const size_t span = chunk_size == 0 ? train_end : chunk_size;
            std::vector<std::pair<size_t, size_t>> bounds;
            std::vector<std::vector<std::set<EventIdx>>> tables;
            for (size_t lo = 0; lo < train_end; lo += span) {
                bounds.emplace_back(lo, std::min(train_end, lo + span));
                tables.push_back(
                    bruteForceTable(seq, lo, bounds.back().second));
            }
            auto chunkOf = [&](size_t st) {
                size_t c = 0;
                while (st >= bounds[c].second)
                    ++c;
                return c;
            };
            for (bool pipeline : {false, true}) {
                SCOPED_TRACE(::testing::Message()
                             << g.spec.name << " chunk=" << chunk_size
                             << " pipeline=" << pipeline);
                TgDiffuser::Options opts;
                opts.chunkSize = chunk_size;
                opts.pipeline = pipeline;
                TgDiffuser diffuser(seq, adj, train_end, opts);

                Rng draw(g.seed * 977 + chunk_size + pipeline);
                size_t maxr = 1 + draw.uniformInt(8);
                diffuser.setMaxRevisit(maxr);
                std::vector<uint8_t> stable(seq.numNodes, 0);
                std::vector<size_t> starts;
                size_t st = 0;
                while (st < train_end) {
                    if (draw.bernoulli(0.2)) {
                        maxr = 1 + draw.uniformInt(8);
                        diffuser.setMaxRevisit(maxr);
                    }
                    if (!starts.empty() && draw.bernoulli(0.1)) {
                        const size_t back = 1 + draw.uniformInt(
                            std::min<size_t>(8, starts.size()));
                        const size_t to = starts[starts.size() - back];
                        cross_chunk_jumps += chunkOf(to) != chunkOf(st);
                        st = to;
                    }
                    for (uint8_t &flag : stable)
                        flag = draw.bernoulli(0.25) ? 1 : 0;
                    const size_t c = chunkOf(st);
                    const size_t want = oracleEnd(
                        tables[c], st, bounds[c].second, maxr, stable);
                    const size_t ed =
                        diffuser.lastTolerableEnd(st, stable);
                    ASSERT_EQ(ed, want)
                        << "batch at " << st << " maxr " << maxr;
                    starts.push_back(st);
                    st = ed;
                }
            }
        }
    }
    EXPECT_GT(cross_chunk_jumps, 0u);
}

TEST(TgDiffuser, Figure7WorkedExample)
{
    EventSequence seq = figure7Sequence();
    TemporalAdjacency adj(seq);
    TgDiffuser diffuser(seq, adj, seq.size(), {});
    diffuser.setMaxRevisit(4);

    // Figure 7(b): with Max_r = 4 the first batch ends at event 8
    // (inclusive), i.e. events [0, 9).
    EXPECT_EQ(diffuser.lastTolerableEnd(0, noStable), 9u);
}

TEST(TgDiffuser, Figure8StableNodesExtendTheBatch)
{
    EventSequence seq = figure7Sequence();
    TemporalAdjacency adj(seq);
    TgDiffuser diffuser(seq, adj, seq.size(), {});
    diffuser.setMaxRevisit(4);

    // Figure 8(b): with nodes 1, 2 and 7 stable the barrier at event
    // 8 vanishes and the batch extends to event 10 (inclusive).
    std::vector<uint8_t> stable(seq.numNodes, 0);
    stable[1] = stable[2] = stable[7] = 1;
    EXPECT_EQ(diffuser.lastTolerableEnd(0, stable), 11u);
}

TEST(TgDiffuser, BatchesPartitionTheSequenceInOrder)
{
    DatasetSpec spec = wikiSpec(200.0);
    Rng rng(1);
    EventSequence seq = generateDataset(spec, rng);
    TemporalAdjacency adj(seq);
    TgDiffuser diffuser(seq, adj, seq.size(), {});
    diffuser.setMaxRevisit(6);

    size_t st = 0;
    size_t batches = 0;
    while (st < seq.size()) {
        const size_t ed = diffuser.lastTolerableEnd(st, noStable);
        ASSERT_GT(ed, st);
        ASSERT_LE(ed, seq.size());
        st = ed;
        ++batches;
    }
    EXPECT_EQ(st, seq.size());
    EXPECT_GT(batches, 1u);
}

class MaxRevisitInvariant : public ::testing::TestWithParam<size_t>
{};

TEST_P(MaxRevisitInvariant, NoNodeExceedsMaxRPlusBoundary)
{
    // Property (§4.2): within any produced batch, every node's
    // relevant-event count is at most Max_r + 1 — the +1 being the
    // boundary event that triggers the node's refresh.
    const size_t maxr = GetParam();
    DatasetSpec spec = wikiSpec(250.0);
    Rng rng(2);
    EventSequence seq = generateDataset(spec, rng);
    TemporalAdjacency adj(seq);
    DependencyTable table =
        DependencyTable::build(seq, adj, 0, seq.size());
    TgDiffuser diffuser(seq, adj, seq.size(), {});
    diffuser.setMaxRevisit(maxr);

    size_t st = 0;
    while (st < seq.size()) {
        const size_t ed = diffuser.lastTolerableEnd(st, noStable);
        for (NodeId n : table.activeNodes()) {
            ASSERT_LE(relevantInBatch(table, n, st, ed), maxr + 1)
                << "node " << n << " batch [" << st << "," << ed << ")";
        }
        st = ed;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MaxRevisitInvariant,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(TgDiffuser, LargerMaxRevisitNeverShrinksBatches)
{
    DatasetSpec spec = wikiSpec(250.0);
    Rng rng(3);
    EventSequence seq = generateDataset(spec, rng);
    TemporalAdjacency adj(seq);

    auto firstBatch = [&](size_t maxr) {
        TgDiffuser d(seq, adj, seq.size(), {});
        d.setMaxRevisit(maxr);
        return d.lastTolerableEnd(0, noStable);
    };
    size_t prev = 0;
    for (size_t maxr : {1, 2, 4, 8, 16, 32}) {
        const size_t ed = firstBatch(maxr);
        ASSERT_GE(ed, prev) << "maxr " << maxr;
        prev = ed;
    }
}

TEST(TgDiffuser, StableNodesNeverShrinkBatches)
{
    DatasetSpec spec = wikiSpec(250.0);
    Rng rng(4);
    EventSequence seq = generateDataset(spec, rng);
    TemporalAdjacency adj(seq);
    TgDiffuser a(seq, adj, seq.size(), {});
    TgDiffuser b(seq, adj, seq.size(), {});
    a.setMaxRevisit(4);
    b.setMaxRevisit(4);

    // Flag the highest-degree node stable.
    size_t hub = 0, hub_deg = 0;
    for (size_t n = 0; n < seq.numNodes; ++n) {
        if (adj.eventsOf(n).size() > hub_deg) {
            hub_deg = adj.eventsOf(n).size();
            hub = n;
        }
    }
    std::vector<uint8_t> stable(seq.numNodes, 0);
    stable[hub] = 1;

    size_t st_a = 0, st_b = 0;
    while (st_a < seq.size() && st_b < seq.size()) {
        const size_t ed_a = a.lastTolerableEnd(st_a, noStable);
        const size_t ed_b = b.lastTolerableEnd(st_b, stable);
        if (st_a == st_b) {
            ASSERT_GE(ed_b, ed_a);
        }
        st_a = ed_a;
        st_b = ed_b;
        if (st_a != st_b)
            break; // trajectories diverged; prefix comparison done
    }
}

TEST(TgDiffuser, AllStableRunsToChunkEnd)
{
    EventSequence seq = figure7Sequence();
    TemporalAdjacency adj(seq);
    TgDiffuser diffuser(seq, adj, seq.size(), {});
    diffuser.setMaxRevisit(1);
    std::vector<uint8_t> stable(seq.numNodes, 1);
    EXPECT_EQ(diffuser.lastTolerableEnd(0, stable), seq.size());
}

TEST(TgDiffuser, ChunksBoundBatchesAndPartition)
{
    DatasetSpec spec = wikiSpec(250.0);
    Rng rng(5);
    EventSequence seq = generateDataset(spec, rng);
    TemporalAdjacency adj(seq);
    TgDiffuser::Options opts;
    opts.chunkSize = seq.size() / 4 + 1;
    opts.pipeline = false;
    TgDiffuser diffuser(seq, adj, seq.size(), opts);
    diffuser.setMaxRevisit(1000000); // only chunk boundaries bind

    EXPECT_EQ(diffuser.numChunks(), 4u);
    size_t st = 0;
    std::vector<size_t> ends;
    while (st < seq.size()) {
        st = diffuser.lastTolerableEnd(st, noStable);
        ends.push_back(st);
    }
    // With an unbounded Max_r each batch is exactly one chunk.
    ASSERT_EQ(ends.size(), 4u);
    EXPECT_EQ(ends.back(), seq.size());
    for (size_t e : ends)
        EXPECT_EQ(e % opts.chunkSize == 0 || e == seq.size(), true);
}

TEST(TgDiffuser, PipelinedChunksProduceSameBatches)
{
    DatasetSpec spec = wikiSpec(250.0);
    Rng rng(6);
    EventSequence seq = generateDataset(spec, rng);
    TemporalAdjacency adj(seq);

    TgDiffuser::Options o1, o2;
    o1.chunkSize = o2.chunkSize = seq.size() / 3 + 1;
    o1.pipeline = false;
    o2.pipeline = true;
    TgDiffuser serial(seq, adj, seq.size(), o1);
    TgDiffuser piped(seq, adj, seq.size(), o2);
    serial.setMaxRevisit(5);
    piped.setMaxRevisit(5);

    size_t st = 0;
    while (st < seq.size()) {
        const size_t a = serial.lastTolerableEnd(st, noStable);
        const size_t b = piped.lastTolerableEnd(st, noStable);
        ASSERT_EQ(a, b);
        st = a;
    }
}

TEST(TgDiffuser, EpochResetReproducesBatches)
{
    DatasetSpec spec = wikiSpec(300.0);
    Rng rng(7);
    EventSequence seq = generateDataset(spec, rng);
    TemporalAdjacency adj(seq);
    TgDiffuser diffuser(seq, adj, seq.size(), {});
    diffuser.setMaxRevisit(4);

    std::vector<size_t> first, second;
    size_t st = 0;
    while (st < seq.size()) {
        st = diffuser.lastTolerableEnd(st, noStable);
        first.push_back(st);
    }
    diffuser.resetEpoch();
    st = 0;
    while (st < seq.size()) {
        st = diffuser.lastTolerableEnd(st, noStable);
        second.push_back(st);
    }
    EXPECT_EQ(first, second);
}

TEST(TgDiffuser, AccountsTimeAndBytes)
{
    EventSequence seq = figure7Sequence();
    TemporalAdjacency adj(seq);
    TgDiffuser diffuser(seq, adj, seq.size(), {});
    diffuser.setMaxRevisit(2);
    diffuser.lastTolerableEnd(0, noStable);
    EXPECT_GE(diffuser.preprocessSeconds(), 0.0);
    EXPECT_GT(diffuser.lookupSeconds(), 0.0);
    EXPECT_GT(diffuser.tableBytes(), 0u);
}
