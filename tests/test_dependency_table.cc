/**
 * @file
 * Dependency-table tests (Algorithm 2): entries are checked against an
 * independent brute-force reference on random graphs, plus structural
 * invariants (sortedness, uniqueness, range truncation, the paper's
 * worked example from Figure 7(a)).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/dependency_table.hh"
#include "dependency_oracle.hh"
#include "graph/dataset.hh"

using namespace cascade;

namespace {

/** The worked example of Figure 7(a): 12 events over nodes 1..9,a-d. */
EventSequence
figure7Sequence()
{
    // Node ids: 1..9 => 1..9, a=10, b=11, c=12, d=13 (0 unused).
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

} // namespace

TEST(DependencyTable, MatchesBruteForceOnSyntheticGraphs)
{
    for (uint64_t seed : {1u, 2u, 3u}) {
        DatasetSpec spec = wikiSpec(400.0);
        Rng rng(seed);
        EventSequence seq = generateDataset(spec, rng);
        TemporalAdjacency adj(seq);
        DependencyTable table =
            DependencyTable::build(seq, adj, 0, seq.size());
        auto ref = bruteForceTable(seq, 0, seq.size());
        for (size_t n = 0; n < seq.numNodes; ++n) {
            const auto entry = absoluteEntry(table, static_cast<NodeId>(n));
            std::vector<EventIdx> expect(ref[n].begin(), ref[n].end());
            ASSERT_EQ(entry, expect) << "node " << n;
        }
    }
}

TEST(DependencyTable, MatchesBruteForceOnSubRange)
{
    DatasetSpec spec = wikiSpec(400.0);
    Rng rng(4);
    EventSequence seq = generateDataset(spec, rng);
    TemporalAdjacency adj(seq);
    const size_t lo = seq.size() / 4, hi = 3 * seq.size() / 4;
    DependencyTable table = DependencyTable::build(seq, adj, lo, hi);
    auto ref = bruteForceTable(seq, lo, hi);
    for (size_t n = 0; n < seq.numNodes; ++n) {
        const auto entry = absoluteEntry(table, static_cast<NodeId>(n));
        std::vector<EventIdx> expect(ref[n].begin(), ref[n].end());
        ASSERT_EQ(entry, expect) << "node " << n;
    }
}

TEST(DependencyTable, ReproducesFigure7Example)
{
    EventSequence seq = figure7Sequence();
    TemporalAdjacency adj(seq);
    DependencyTable table =
        DependencyTable::build(seq, adj, 0, seq.size());

    // Figure 7(a) right-hand side, node 1: {0,1,2,3,8,9,10,11}.
    EXPECT_EQ(absoluteEntry(table, 1),
              (std::vector<EventIdx>{0, 1, 2, 3, 8, 9, 10, 11}));
    // Node 2: {0,1,2,3,8,9,10} — connected to node 1 at event 0, so
    // it inherits node 1's later events but not e11 (node 3's).
    EXPECT_EQ(absoluteEntry(table, 2),
              (std::vector<EventIdx>{0, 1, 2, 3, 8, 9, 10}));
    // Node 3: {8,9,10,11}.
    EXPECT_EQ(absoluteEntry(table, 3), (std::vector<EventIdx>{8, 9, 10, 11}));
    // Node 4: {7,11}.
    EXPECT_EQ(absoluteEntry(table, 4), (std::vector<EventIdx>{7, 11}));
    // Node a (=10): {4,5,6,7,11}.
    EXPECT_EQ(absoluteEntry(table, 10), (std::vector<EventIdx>{4, 5, 6, 7, 11}));
    // Node d (=13): {6,7}.
    EXPECT_EQ(absoluteEntry(table, 13), (std::vector<EventIdx>{6, 7}));
}

TEST(DependencyTable, EntriesSortedUniqueInRange)
{
    DatasetSpec spec = redditSpec(500.0);
    Rng rng(5);
    EventSequence seq = generateDataset(spec, rng);
    TemporalAdjacency adj(seq);
    const size_t hi = seq.size() / 2;
    DependencyTable table = DependencyTable::build(seq, adj, 0, hi);
    for (size_t n = 0; n < seq.numNodes; ++n) {
        const auto entry = absoluteEntry(table, static_cast<NodeId>(n));
        for (size_t i = 1; i < entry.size(); ++i)
            ASSERT_LT(entry[i - 1], entry[i]);
        for (EventIdx e : entry)
            ASSERT_LT(e, static_cast<EventIdx>(hi));
    }
}

TEST(DependencyTable, ActiveNodesAreExactlyNonEmptyEntries)
{
    EventSequence seq = figure7Sequence();
    TemporalAdjacency adj(seq);
    DependencyTable table =
        DependencyTable::build(seq, adj, 0, seq.size());
    std::set<NodeId> active(table.activeNodes().begin(),
                            table.activeNodes().end());
    for (size_t n = 0; n < seq.numNodes; ++n) {
        EXPECT_EQ(active.count(static_cast<NodeId>(n)) == 1,
                  !absoluteEntry(table, static_cast<NodeId>(n)).empty());
    }
    EXPECT_FALSE(active.count(0)); // node 0 has no events
}

TEST(DependencyTable, OwnEventsAlwaysPresent)
{
    DatasetSpec spec = moocSpec(500.0);
    Rng rng(6);
    EventSequence seq = generateDataset(spec, rng);
    TemporalAdjacency adj(seq);
    DependencyTable table =
        DependencyTable::build(seq, adj, 0, seq.size());
    for (size_t i = 0; i < seq.size(); ++i) {
        const auto se = absoluteEntry(table, seq.events[i].src);
        const auto de = absoluteEntry(table, seq.events[i].dst);
        ASSERT_TRUE(std::binary_search(se.begin(), se.end(),
                                       static_cast<EventIdx>(i)));
        ASSERT_TRUE(std::binary_search(de.begin(), de.end(),
                                       static_cast<EventIdx>(i)));
    }
}

TEST(DependencyTable, ChunkedTablesCoverTheFullTableWithinChunks)
{
    // Within a chunk the chunked entry equals the full entry filtered
    // to the chunk (dependencies never cross the boundary).
    DatasetSpec spec = wikiSpec(400.0);
    Rng rng(7);
    EventSequence seq = generateDataset(spec, rng);
    TemporalAdjacency adj(seq);
    const size_t chunk = seq.size() / 3;
    DependencyTable full =
        DependencyTable::build(seq, adj, 0, seq.size());
    DependencyTable c1 = DependencyTable::build(seq, adj, chunk,
                                                2 * chunk);
    for (size_t n = 0; n < seq.numNodes; ++n) {
        std::vector<EventIdx> expect;
        for (EventIdx e : absoluteEntry(full, static_cast<NodeId>(n))) {
            if (e >= static_cast<EventIdx>(chunk) &&
                e < static_cast<EventIdx>(2 * chunk)) {
                expect.push_back(e);
            }
        }
        // The chunked entry may contain *more* than the filtered full
        // entry? No: dependencies are within-chunk only, and any
        // within-chunk dependency is also a full-table dependency.
        // It may contain *fewer* cross-boundary inherited events —
        // but never ones the full table lacks.
        for (EventIdx e : absoluteEntry(c1, static_cast<NodeId>(n))) {
            ASSERT_TRUE(std::binary_search(expect.begin(), expect.end(),
                                           e))
                << "node " << n << " event " << e;
        }
    }
}

TEST(DependencyTable, BytesAreExact)
{
    // One u32 per entry, one u64 offset per node plus one, one NodeId
    // per active node: no per-node headers and no capacity slack.
    DatasetSpec spec = wikiSpec(400.0);
    Rng rng(8);
    EventSequence seq = generateDataset(spec, rng);
    TemporalAdjacency adj(seq);
    for (size_t lo : {size_t(0), seq.size() / 3}) {
        DependencyTable table =
            DependencyTable::build(seq, adj, lo, seq.size());
        size_t entries = 0;
        for (size_t n = 0; n < seq.numNodes; ++n)
            entries += table.entry(static_cast<NodeId>(n)).size();
        ASSERT_GT(entries, 0u);
        EXPECT_EQ(table.bytes(),
                  4 * entries + 8 * (seq.numNodes + 1) +
                      sizeof(NodeId) * table.activeNodes().size());
    }
}

TEST(DependencyTable, BytesGrowWithEntries)
{
    EventSequence seq = figure7Sequence();
    TemporalAdjacency adj(seq);
    DependencyTable big =
        DependencyTable::build(seq, adj, 0, seq.size());
    DependencyTable small = DependencyTable::build(seq, adj, 0, 2);
    EXPECT_GT(big.bytes(), small.bytes());
    EXPECT_GE(big.buildSeconds(), 0.0);
}
