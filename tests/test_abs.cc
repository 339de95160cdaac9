/**
 * @file
 * Adaptive Batch Sensor tests (§4.4): endurance profiling against a
 * brute-force oracle, the initial 2·mean setting, clamping into
 * [mr_min, mr_max], plateau-triggered logarithmic decay and its
 * cadence, epoch reset.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/abs.hh"
#include "dependency_oracle.hh"
#include "graph/dataset.hh"

using namespace cascade;

namespace {

AdaptiveBatchSensor::Options
baseOptions(size_t base_batch = 8)
{
    AdaptiveBatchSensor::Options o;
    o.baseBatch = base_batch;
    o.sampleBatches = 50;
    o.period = 20;
    o.plateau = 10;
    return o;
}

EnduranceStats
stats(double mn, double mean, double mx, size_t batches)
{
    EnduranceStats s;
    s.mrMin = mn;
    s.mrMean = mean;
    s.mrMax = mx;
    s.batchCount = batches;
    return s;
}

/**
 * Max endurance of every base batch, from the definition (Figure 9):
 * the most brute-force dependency-table entries any node involved in
 * the batch has inside the batch window.
 */
std::vector<double>
oracleEndurance(const EventSequence &seq, size_t base_batch)
{
    const auto table = bruteForceTable(seq, 0, seq.size());
    std::vector<double> out;
    for (size_t st = 0; st < seq.size(); st += base_batch) {
        const size_t ed = std::min(seq.size(), st + base_batch);
        std::set<NodeId> involved;
        for (size_t i = st; i < ed; ++i) {
            involved.insert(seq.events[i].src);
            involved.insert(seq.events[i].dst);
        }
        size_t most = 0;
        for (NodeId n : involved) {
            const auto &entry = table[static_cast<size_t>(n)];
            const auto first =
                entry.lower_bound(static_cast<EventIdx>(st));
            const auto last = entry.lower_bound(static_cast<EventIdx>(ed));
            most = std::max(
                most, static_cast<size_t>(std::distance(first, last)));
        }
        out.push_back(static_cast<double>(most));
    }
    return out;
}

struct ProfileFixture
{
    DatasetSpec spec = wikiSpec(200.0);
    EventSequence seq;
    DependencyTable table;
    std::vector<double> oracle;

    explicit ProfileFixture(uint64_t seed)
        : seq([&] {
              Rng rng(seed);
              return generateDataset(spec, rng);
          }()),
          table([&] {
              TemporalAdjacency adj(seq);
              return DependencyTable::build(seq, adj, 0, seq.size());
          }()),
          oracle(oracleEndurance(seq, spec.baseBatch))
    {}
};

} // namespace

TEST(Abs, ProfileMatchesBruteForceOracle)
{
    for (uint64_t seed : {1u, 2u, 3u}) {
        ProfileFixture f(seed);
        AdaptiveBatchSensor::Options o = baseOptions(f.spec.baseBatch);
        o.sampleBatches = f.oracle.size(); // profile every batch
        AdaptiveBatchSensor abs(o);
        const EnduranceStats s = abs.profile(f.seq, f.table);

        double sum = 0.0;
        for (double e : f.oracle)
            sum += e;
        const auto [mn, mx] =
            std::minmax_element(f.oracle.begin(), f.oracle.end());
        ASSERT_EQ(s.batchCount, f.oracle.size()) << "seed " << seed;
        EXPECT_EQ(s.mrMean, sum / f.oracle.size()) << "seed " << seed;
        EXPECT_EQ(s.mrMin, std::max(1.0, *mn)) << "seed " << seed;
        EXPECT_EQ(s.mrMax, std::max(s.mrMin, *mx)) << "seed " << seed;
    }
}

TEST(Abs, SampledProfileStaysWithinOracleRange)
{
    for (uint64_t seed : {1u, 2u, 3u}) {
        ProfileFixture f(seed);
        AdaptiveBatchSensor::Options o = baseOptions(f.spec.baseBatch);
        o.sampleBatches = f.oracle.size() / 4;
        ASSERT_GT(o.sampleBatches, 0u);
        AdaptiveBatchSensor abs(o);
        const EnduranceStats s = abs.profile(f.seq, f.table);

        const auto [mn, mx] =
            std::minmax_element(f.oracle.begin(), f.oracle.end());
        const double lo = std::max(1.0, *mn);
        const double hi = std::max(lo, *mx);
        EXPECT_GE(s.mrMin, lo) << "seed " << seed;
        EXPECT_LE(s.mrMax, hi) << "seed " << seed;
        EXPECT_GE(s.mrMean, *mn) << "seed " << seed;
        EXPECT_LE(s.mrMean, *mx) << "seed " << seed;
    }
}

TEST(Abs, ProfileProducesConsistentStats)
{
    DatasetSpec spec = wikiSpec(200.0);
    Rng rng(1);
    EventSequence seq = generateDataset(spec, rng);
    TemporalAdjacency adj(seq);
    DependencyTable table =
        DependencyTable::build(seq, adj, 0, seq.size());

    AdaptiveBatchSensor abs(baseOptions(spec.baseBatch));
    EnduranceStats s = abs.profile(seq, table);
    EXPECT_GE(s.mrMin, 1.0);
    EXPECT_GE(s.mrMean, s.mrMin);
    EXPECT_GE(s.mrMax, s.mrMean);
    EXPECT_EQ(s.batchCount,
              (seq.size() + spec.baseBatch - 1) / spec.baseBatch);
    // Max endurance within a batch cannot exceed the batch length
    // as incident events, but entries include neighbor futures, so
    // the bound is the full batch window.
    EXPECT_LE(s.mrMax, static_cast<double>(spec.baseBatch));
}

TEST(Abs, InitialMaxRevisitIsTwiceMeanClamped)
{
    AdaptiveBatchSensor abs(baseOptions());
    abs.setStats(stats(2, 10, 60, 100));
    EXPECT_EQ(abs.currentMaxRevisit(), 20u);

    // 2*mean above mr_max clamps down.
    abs.setStats(stats(2, 40, 60, 100));
    EXPECT_EQ(abs.currentMaxRevisit(), 60u);

    // 2*mean below mr_min clamps up (degenerate but guarded).
    abs.setStats(stats(30, 10, 60, 100));
    EXPECT_EQ(abs.currentMaxRevisit(), 30u);
}

TEST(Abs, ImprovingLossNeverDecays)
{
    AdaptiveBatchSensor abs(baseOptions());
    abs.setStats(stats(2, 10, 60, 100));
    double loss = 1.0;
    for (int i = 0; i < 100; ++i) {
        abs.observeLoss(loss);
        loss *= 0.99; // steadily improving
    }
    EXPECT_EQ(abs.decayCount(), 0u);
    EXPECT_EQ(abs.currentMaxRevisit(), 20u);
}

TEST(Abs, PlateauTriggersDecayAtPeriodCadence)
{
    AdaptiveBatchSensor abs(baseOptions());
    abs.setStats(stats(2, 10, 60, 100));
    // Flat loss: plateau from the start.
    for (int i = 0; i < 19; ++i)
        abs.observeLoss(0.5);
    EXPECT_EQ(abs.decayCount(), 0u); // before the 20-batch decision
    abs.observeLoss(0.5);
    EXPECT_EQ(abs.decayCount(), 1u); // decision fires at batch 20
    for (int i = 0; i < 20; ++i)
        abs.observeLoss(0.5);
    EXPECT_EQ(abs.decayCount(), 2u);
}

TEST(Abs, DecayedValueStaysInProfiledRange)
{
    AdaptiveBatchSensor abs(baseOptions());
    abs.setStats(stats(2, 10, 60, 50));
    for (int i = 0; i < 2000; ++i)
        abs.observeLoss(0.5);
    EXPECT_GE(abs.currentMaxRevisit(), 2u);
    EXPECT_LE(abs.currentMaxRevisit(), 60u);
    EXPECT_GT(abs.decayCount(), 10u);
}

TEST(Abs, DecayIsMonotonicallyNonIncreasing)
{
    AdaptiveBatchSensor abs(baseOptions());
    abs.setStats(stats(4, 12, 40, 30));
    size_t prev = abs.currentMaxRevisit();
    for (int i = 0; i < 500; ++i) {
        abs.observeLoss(0.7);
        ASSERT_LE(abs.currentMaxRevisit(), prev);
        prev = abs.currentMaxRevisit();
    }
}

TEST(Abs, EpochResetRestoresInitialValue)
{
    AdaptiveBatchSensor abs(baseOptions());
    abs.setStats(stats(2, 10, 60, 100));
    for (int i = 0; i < 200; ++i)
        abs.observeLoss(0.9);
    abs.resetEpoch();
    EXPECT_EQ(abs.currentMaxRevisit(), 20u);
    // And the plateau tracking restarts.
    abs.observeLoss(0.1);
    EXPECT_EQ(abs.currentMaxRevisit(), 20u);
}

TEST(Abs, ImprovementResetsPlateauWindow)
{
    AdaptiveBatchSensor abs(baseOptions());
    abs.setStats(stats(2, 10, 60, 100));
    double loss = 1.0;
    // Improve every 5th batch: the plateau window (10) never fills.
    for (int i = 0; i < 200; ++i) {
        if (i % 5 == 0)
            loss -= 0.004;
        abs.observeLoss(loss);
    }
    EXPECT_EQ(abs.decayCount(), 0u);
}

TEST(Abs, ProfileDeterministicForSeed)
{
    DatasetSpec spec = wikiSpec(300.0);
    Rng rng(3);
    EventSequence seq = generateDataset(spec, rng);
    TemporalAdjacency adj(seq);
    DependencyTable table =
        DependencyTable::build(seq, adj, 0, seq.size());

    AdaptiveBatchSensor a(baseOptions(spec.baseBatch));
    AdaptiveBatchSensor b(baseOptions(spec.baseBatch));
    EnduranceStats sa = a.profile(seq, table);
    EnduranceStats sb = b.profile(seq, table);
    EXPECT_DOUBLE_EQ(sa.mrMean, sb.mrMean);
    EXPECT_DOUBLE_EQ(sa.mrMax, sb.mrMax);
    EXPECT_DOUBLE_EQ(sa.mrMin, sb.mrMin);
}
