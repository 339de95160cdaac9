/**
 * @file
 * SG-Filter tests (§4.3): threshold semantics, flag transitions in
 * both directions, epoch reset, the Figure 5 ratio counters, and a
 * brute-force oracle over random memory-update sequences.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/sg_filter.hh"
#include "tensor/tensor.hh"
#include "tgnn/memory.hh"
#include "util/rng.hh"

using namespace cascade;

TEST(SgFilter, StartsAllUnstable)
{
    SgFilter f(5, 0.9);
    for (uint8_t v : f.stableFlags())
        EXPECT_EQ(v, 0);
    EXPECT_EQ(f.stableCount(), 0u);
}

TEST(SgFilter, ThresholdIsStrict)
{
    SgFilter f(3, 0.9);
    f.update({0, 1, 2}, {0.95, 0.9, 0.85});
    EXPECT_EQ(f.stableFlags()[0], 1); // above
    EXPECT_EQ(f.stableFlags()[1], 0); // exactly at threshold: not >
    EXPECT_EQ(f.stableFlags()[2], 0); // below
    EXPECT_EQ(f.stableCount(), 1u);
}

TEST(SgFilter, FlagsFlipBothWays)
{
    SgFilter f(2, 0.9);
    f.update({0}, {0.99});
    EXPECT_EQ(f.stableFlags()[0], 1);
    // A later unstable update revokes the flag (§4.3: flags track the
    // most recent update).
    f.update({0}, {0.2});
    EXPECT_EQ(f.stableFlags()[0], 0);
    EXPECT_EQ(f.stableCount(), 0u);
}

TEST(SgFilter, ResetClearsFlagsAndCounters)
{
    SgFilter f(4, 0.9);
    f.update({0, 1}, {0.95, 0.99});
    EXPECT_EQ(f.stableCount(), 2u);
    EXPECT_GT(f.stableUpdateRatio(), 0.0);
    f.reset();
    EXPECT_EQ(f.stableCount(), 0u);
    EXPECT_DOUBLE_EQ(f.stableUpdateRatio(), 0.0);
    for (uint8_t v : f.stableFlags())
        EXPECT_EQ(v, 0);
}

TEST(SgFilter, StableUpdateRatioCountsUpdatesNotNodes)
{
    SgFilter f(2, 0.9);
    // Node 0 updated three times: stable, stable, unstable.
    f.update({0}, {0.95});
    f.update({0}, {0.95});
    f.update({0}, {0.1});
    EXPECT_NEAR(f.stableUpdateRatio(), 2.0 / 3.0, 1e-9);
}

TEST(SgFilter, CustomThreshold)
{
    SgFilter strict(1, 0.99);
    strict.update({0}, {0.95});
    EXPECT_EQ(strict.stableFlags()[0], 0);

    SgFilter loose(1, 0.5);
    loose.update({0}, {0.6});
    EXPECT_EQ(loose.stableFlags()[0], 1);
    EXPECT_DOUBLE_EQ(strict.threshold(), 0.99);
    EXPECT_DOUBLE_EQ(loose.threshold(), 0.5);
}

TEST(SgFilter, BytesScaleWithNodes)
{
    SgFilter small(10, 0.9), big(1000, 0.9);
    EXPECT_LT(small.bytes(), big.bytes());
}

namespace {

/** Squared norm of row r, as cosineSimilarityRows sums it. */
double
sqNorm(const Tensor &t, size_t r)
{
    double n = 0.0;
    for (size_t c = 0; c < t.cols(); ++c)
        n += static_cast<double>(t.at(r, c)) * t.at(r, c);
    return n;
}

/**
 * Drive MemoryStore::write -> SgFilter::update with random batches
 * and check the filter after every batch against flags, counts and
 * the ratio recomputed from a shadow memory with cosineSimilarityRows
 * and the strict cos > θ.
 */
void
checkAgainstOracle(uint64_t seed, double theta)
{
    constexpr size_t kNodes = 64, kDim = 8, kBatches = 200;
    constexpr size_t kResetEvery = 50;
    Rng rng(seed);
    MemoryStore store(kNodes, kDim);
    SgFilter filter(kNodes, theta);
    Tensor shadow(kNodes, kDim);
    // Since the last reset: each node's latest cosine, if any, and
    // the update tallies.
    std::vector<double> last(kNodes, 0.0);
    std::vector<bool> seen(kNodes, false);
    size_t total = 0, stable = 0, oneZero = 0;

    for (size_t b = 0; b < kBatches; ++b) {
        if (b % kResetEvery == 0) {
            filter.reset();
            std::fill(seen.begin(), seen.end(), false);
            total = stable = 0;
        }
        const size_t size = 1 + rng.uniformInt(16);
        std::vector<NodeId> nodes(size);
        for (NodeId &n : nodes)
            n = static_cast<NodeId>(rng.uniformInt(kNodes));

        // Each row starts from the node's memory as the writes before
        // it in this batch leave it, so repeated nodes chain.
        Tensor values(size, kDim);
        std::vector<double> want(size);
        for (size_t i = 0; i < size; ++i) {
            const size_t n = static_cast<size_t>(nodes[i]);
            const uint64_t kind = rng.uniformInt(4);
            const float scale = static_cast<float>(rng.uniform(0.25, 4.0));
            for (size_t c = 0; c < kDim; ++c) {
                float v = 0.0f; // kind 2: a zero row
                if (kind == 0)
                    v = shadow.at(n, c); // unchanged copy
                else if (kind == 1)
                    v = shadow.at(n, c) * scale; // positive rescale
                else if (kind == 3)
                    v = static_cast<float>(rng.gaussian()); // fresh row
                values.at(i, c) = v;
            }
            const bool oldZero = sqNorm(shadow, n) < 1e-24;
            const bool newZero = sqNorm(values, i) < 1e-24;
            want[i] = cosineSimilarityRows(shadow, n, values, i);
            if (oldZero || newZero) {
                // The conventions return exact values; under θ = 0.0
                // a one-zero update's 0.0 tests the strict compare.
                ASSERT_EQ(want[i], oldZero && newZero ? 1.0 : 0.0);
                oneZero += oldZero != newZero;
            } else {
                ASSERT_GT(std::abs(want[i] - theta), 1e-9)
                    << "an oracle cosine this close to θ may round to "
                       "the other side in the kernel; pick a seed "
                       "that avoids it";
            }
            shadow.copyRowFrom(n, values, i);
        }

        const std::vector<double> got =
            store.write(nodes, values, static_cast<double>(b));
        ASSERT_EQ(got.size(), size);
        for (size_t i = 0; i < size; ++i)
            ASSERT_NEAR(got[i], want[i], 1e-12) << "batch " << b;
        filter.update(nodes, got);

        for (size_t i = 0; i < size; ++i) {
            const size_t n = static_cast<size_t>(nodes[i]);
            last[n] = want[i];
            seen[n] = true;
            ++total;
            stable += want[i] > theta;
        }
        size_t count = 0;
        for (size_t n = 0; n < kNodes; ++n) {
            const bool flag = seen[n] && last[n] > theta;
            count += flag;
            ASSERT_EQ(filter.stableFlags()[n], flag ? 1 : 0)
                << "node " << n << " after batch " << b;
        }
        ASSERT_EQ(filter.stableCount(), count) << "batch " << b;
        ASSERT_EQ(filter.stableUpdateRatio(),
                  static_cast<double>(stable) / total)
            << "batch " << b;
    }
    EXPECT_GT(oneZero, 0u);
}

} // namespace

TEST(SgFilter, FlagsMatchBruteForceOracleOverRandomUpdates)
{
    for (uint64_t seed : {1, 2, 3}) {
        for (double theta : {0.9, 0.0}) {
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << " theta " << theta);
            checkAgainstOracle(seed, theta);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}
