/**
 * @file
 * Autograd tests: every op's analytic gradient is validated against
 * central finite differences, plus graph-mechanics tests (reuse,
 * detach, accumulation) and parameterized sweeps over shapes.
 */

#include <gtest/gtest.h>

#include "tensor/gradcheck.hh"
#include "tensor/ops.hh"
#include "util/rng.hh"

using namespace cascade;
using namespace cascade::ops;

namespace {

Variable
leaf(size_t r, size_t c, Rng &rng, float stddev = 0.5f)
{
    return Variable(Tensor::randn(r, c, rng, stddev), true);
}

} // namespace

TEST(Autograd, MatmulGradient)
{
    Rng rng(1);
    Variable a = leaf(3, 4, rng), b = leaf(4, 2, rng);
    EXPECT_LT(gradCheck({a, b},
                        [&] { return sumAll(matmul(a, b)); }),
              1e-2);
}

TEST(Autograd, AddSameShapeGradient)
{
    Rng rng(2);
    Variable a = leaf(2, 3, rng), b = leaf(2, 3, rng);
    EXPECT_LT(gradCheck({a, b},
                        [&] { return sumAll(square(add(a, b))); }),
              1e-2);
}

TEST(Autograd, AddRowBroadcastGradient)
{
    Rng rng(3);
    Variable a = leaf(4, 3, rng), bias = leaf(1, 3, rng);
    EXPECT_LT(gradCheck({a, bias},
                        [&] { return sumAll(square(add(a, bias))); }),
              1e-2);
}

TEST(Autograd, AddColBroadcastGradient)
{
    Rng rng(4);
    Variable a = leaf(4, 3, rng), col = leaf(4, 1, rng);
    EXPECT_LT(gradCheck({a, col},
                        [&] { return sumAll(square(add(a, col))); }),
              1e-2);
}

TEST(Autograd, SubGradient)
{
    Rng rng(5);
    Variable a = leaf(3, 3, rng), b = leaf(3, 3, rng);
    EXPECT_LT(gradCheck({a, b},
                        [&] { return sumAll(square(sub(a, b))); }),
              1e-2);
}

TEST(Autograd, MulElementwiseGradient)
{
    Rng rng(6);
    Variable a = leaf(3, 3, rng), b = leaf(3, 3, rng);
    EXPECT_LT(gradCheck({a, b}, [&] { return sumAll(mul(a, b)); }),
              1e-2);
}

TEST(Autograd, MulColumnBroadcastGradient)
{
    Rng rng(7);
    Variable a = leaf(3, 4, rng), col = leaf(3, 1, rng);
    EXPECT_LT(gradCheck({a, col}, [&] { return sumAll(mul(a, col)); }),
              1e-2);
}

TEST(Autograd, ScaleGradient)
{
    Rng rng(8);
    Variable a = leaf(2, 5, rng);
    EXPECT_LT(gradCheck({a},
                        [&] { return sumAll(scale(square(a), -2.5f)); }),
              1e-2);
}

class UnaryOpGrad : public ::testing::TestWithParam<int>
{};

TEST_P(UnaryOpGrad, MatchesFiniteDifference)
{
    Rng rng(100 + GetParam());
    Variable a = leaf(3, 4, rng, 0.8f);
    auto apply = [&](const Variable &x) {
        switch (GetParam()) {
          case 0: return sigmoid(x);
          case 1: return tanhOp(x);
          case 2: return leakyRelu(x, 0.2f);
          case 3: return cosOp(x);
          case 4: return square(x);
          default: return relu(x);
        }
    };
    EXPECT_LT(gradCheck({a}, [&] { return sumAll(apply(a)); }), 2e-2);
}

INSTANTIATE_TEST_SUITE_P(AllUnaryOps, UnaryOpGrad,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(Autograd, ConcatColsGradient)
{
    Rng rng(9);
    Variable a = leaf(3, 2, rng), b = leaf(3, 4, rng);
    EXPECT_LT(gradCheck({a, b},
                        [&] {
                            return sumAll(square(concatCols(a, b)));
                        }),
              1e-2);
}

TEST(Autograd, GatherRowsGradientWithDuplicates)
{
    Rng rng(11);
    Variable a = leaf(4, 3, rng);
    std::vector<int64_t> idx = {0, 2, 2, 3, 0};
    EXPECT_LT(gradCheck({a},
                        [&] {
                            return sumAll(square(gatherRows(a, idx)));
                        }),
              1e-2);
}

TEST(Autograd, GroupedSoftmaxGradient)
{
    Rng rng(14);
    Variable s = leaf(8, 1, rng, 1.0f);
    Variable w(Tensor::randn(8, 1, rng), false); // fixed mixing weights
    EXPECT_LT(gradCheck({s},
                        [&] {
                            return sumAll(mul(groupedSoftmax(s, 4), w));
                        }),
              2e-2);
}

TEST(GroupedSoftmax, RowsSumToOnePerGroup)
{
    Rng rng(15);
    Variable s = leaf(12, 1, rng, 2.0f);
    Variable p = groupedSoftmax(s, 4);
    for (size_t g = 0; g < 3; ++g) {
        double sum = 0.0;
        for (size_t j = 0; j < 4; ++j)
            sum += p.value().at(g * 4 + j, 0);
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Autograd, GroupedWeightedSumGradient)
{
    Rng rng(16);
    Variable w = leaf(6, 1, rng), f = leaf(6, 4, rng);
    EXPECT_LT(gradCheck({w, f},
                        [&] {
                            return sumAll(
                                square(groupedWeightedSum(w, f, 3)));
                        }),
              1e-2);
}

TEST(Autograd, BceWithLogitsGradientAndValue)
{
    Rng rng(17);
    Variable logits = leaf(6, 1, rng, 1.5f);
    Tensor targets(6, 1);
    for (size_t i = 0; i < 6; ++i)
        targets.at(i, 0) = i % 2 ? 1.0f : 0.0f;
    EXPECT_LT(gradCheck({logits},
                        [&] { return bceWithLogits(logits, targets); }),
              2e-2);

    // Perfect confident predictions give near-zero loss.
    Tensor perfect(2, 1, {20.0f, -20.0f});
    Tensor t2(2, 1, {1.0f, 0.0f});
    Variable v(perfect, false);
    EXPECT_NEAR(bceWithLogits(v, t2).value().at(0, 0), 0.0, 1e-6);
}

TEST(Autograd, ReusedSubexpressionAccumulatesGrad)
{
    // y = sum(a*a + a): dy/da = 2a + 1 requires accumulation through
    // two uses of the same node.
    Tensor init(1, 1, {3.0f});
    Variable a(init, true);
    Variable y = sumAll(add(mul(a, a), a));
    y.backward();
    EXPECT_NEAR(a.grad().at(0, 0), 7.0f, 1e-5);
}

TEST(Autograd, DetachBlocksGradient)
{
    Tensor init(1, 1, {2.0f});
    Variable a(init, true);
    Variable d = mul(a, a).detach();
    EXPECT_FALSE(d.requiresGrad());
    Variable y = sumAll(mul(d, d));
    y.backward();
    // Gradient never reaches a.
    EXPECT_FLOAT_EQ(a.grad().at(0, 0), 0.0f);
}

TEST(Autograd, NoGradLeavesUntouched)
{
    Rng rng(18);
    Variable a = leaf(2, 2, rng);
    Variable frozen(Tensor::randn(2, 2, rng), false);
    Variable y = sumAll(mul(a, frozen));
    y.backward();
    EXPECT_GT(a.grad().maxAbs(), 0.0f);
}

TEST(Autograd, BackwardTwiceAccumulates)
{
    Tensor init(1, 1, {1.0f});
    Variable a(init, true);
    Variable y = sumAll(scale(a, 3.0f));
    y.backward();
    y.backward();
    EXPECT_FLOAT_EQ(a.grad().at(0, 0), 6.0f);
    a.zeroGrad();
    EXPECT_FLOAT_EQ(a.grad().at(0, 0), 0.0f);
}

TEST(Autograd, DeepChainGradient)
{
    Rng rng(19);
    Variable a = leaf(2, 2, rng, 0.3f);
    EXPECT_LT(gradCheck({a},
                        [&] {
                            Variable h = a;
                            for (int i = 0; i < 6; ++i)
                                h = tanhOp(add(h, a));
                            return sumAll(square(h));
                        }),
              2e-2);
}

TEST(Autograd, CompositeAttentionLikeExpression)
{
    // A miniature GAT-shaped computation exercised end to end.
    Rng rng(20);
    Variable target = leaf(2, 3, rng);
    Variable nbrs = leaf(6, 3, rng);
    Variable w = leaf(3, 1, rng);
    EXPECT_LT(gradCheck({target, nbrs, w},
                        [&] {
                            Variable score =
                                leakyRelu(matmul(nbrs, w));
                            Variable attn = groupedSoftmax(score, 3);
                            Variable pooled =
                                groupedWeightedSum(attn, nbrs, 3);
                            return sumAll(square(add(pooled, target)));
                        }),
              2e-2);
}
