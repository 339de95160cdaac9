/**
 * @file
 * Failure-injection and boundary tests: shape violations must panic
 * loudly (death tests), and edge-shaped inputs (single rows, single
 * columns, k=1 groups) must behave.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.hh"
#include "tgnn/mailbox.hh"
#include "train/batcher.hh"
#include "util/rng.hh"

using namespace cascade;
using namespace cascade::ops;

using OpsDeath = ::testing::Test;

TEST(OpsDeath, MatmulInnerDimMismatch)
{
    Variable a(Tensor::ones(2, 3)), b(Tensor::ones(2, 3));
    EXPECT_DEATH(matmul(a, b), "inner dim mismatch");
}

TEST(OpsDeath, AddIncompatibleShapes)
{
    Variable a(Tensor::ones(2, 3)), b(Tensor::ones(3, 2));
    EXPECT_DEATH(add(a, b), "incompatible shapes");
}

TEST(OpsDeath, SubShapeMismatch)
{
    Variable a(Tensor::ones(2, 3)), b(Tensor::ones(2, 2));
    EXPECT_DEATH(sub(a, b), "sub shape mismatch");
}

TEST(OpsDeath, GatherRowsOutOfRange)
{
    Variable a(Tensor::ones(2, 3));
    EXPECT_DEATH(gatherRows(a, {0, 2}), "gatherRows index out of range");
    EXPECT_DEATH(gatherRows(a, {-1}), "gatherRows index out of range");
}

TEST(OpsDeath, GroupedOpsRequireDivisibleRows)
{
    Variable s(Tensor::ones(5, 1));
    EXPECT_DEATH(groupedSoftmax(s, 2), "rows not divisible");
}

TEST(OpsDeath, BackwardRequiresScalarRoot)
{
    Variable a(Tensor::ones(2, 2), true);
    Variable y = square(a);
    EXPECT_DEATH(y.backward(), "requires a scalar");
}

TEST(OpsDeath, BceShapeMismatch)
{
    Variable logits(Tensor::ones(3, 1));
    EXPECT_DEATH(bceWithLogits(logits, Tensor::ones(2, 1)),
                 "matching Bx1 shapes");
}

TEST(BatcherDeath, FixedBatcherRejectsOutOfRangeStart)
{
    FixedBatcher b(10, 4);
    EXPECT_DEATH(b.next(10), "st out of range");
}

TEST(OpsEdge, SingleRowSingleColumn)
{
    Variable a(Tensor::full(1, 1, 3.0f), true);
    Variable y = sumAll(square(a));
    y.backward();
    EXPECT_FLOAT_EQ(y.value().at(0, 0), 9.0f);
    EXPECT_FLOAT_EQ(a.grad().at(0, 0), 6.0f);
}

TEST(OpsEdge, GroupSizeOneSoftmaxIsIdentityWeight)
{
    Rng rng(1);
    Variable s(Tensor::randn(4, 1, rng));
    Variable p = groupedSoftmax(s, 1);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(p.value().at(i, 0), 1.0f);
}

TEST(OpsEdge, GroupedWeightedSumWithK1IsScaling)
{
    Tensor w(2, 1, {2.0f, 3.0f});
    Tensor f(2, 2, {1, 1, 1, 1});
    Variable out = groupedWeightedSum(Variable(w), Variable(f), 1);
    EXPECT_FLOAT_EQ(out.value().at(0, 0), 2.0f);
    EXPECT_FLOAT_EQ(out.value().at(1, 1), 3.0f);
}

TEST(OpsEdge, ConcatWithZeroWidth)
{
    Variable a(Tensor::ones(2, 3));
    Variable empty(Tensor(2, 0));
    Variable out = concatCols(a, empty);
    EXPECT_EQ(out.cols(), 3u);
    EXPECT_FLOAT_EQ(out.value().at(1, 2), 1.0f);
}

TEST(OpsEdge, SigmoidExtremeInputsSaturateStably)
{
    Tensor x(2, 1, {80.0f, -80.0f});
    Variable y = sigmoid(Variable(x, true));
    EXPECT_NEAR(y.value().at(0, 0), 1.0f, 1e-6);
    EXPECT_NEAR(y.value().at(1, 0), 0.0f, 1e-6);
    Variable loss = sumAll(y);
    loss.backward(); // must not produce NaN
    EXPECT_FALSE(std::isnan(y.value().at(0, 0)));
}

TEST(OpsEdge, BceExtremeLogitsFinite)
{
    Tensor logits(2, 1, {100.0f, -100.0f});
    Tensor targets(2, 1, {0.0f, 1.0f});
    Variable v(logits, true);
    Variable loss = bceWithLogits(v, targets);
    EXPECT_NEAR(loss.value().at(0, 0), 100.0f, 1e-3);
    loss.backward();
    EXPECT_FALSE(std::isnan(v.grad().at(0, 0)));
}

TEST(MailboxDeath, BadConstruction)
{
    EXPECT_DEATH(Mailbox(8, 0, 4), "bad dimensions");
}
