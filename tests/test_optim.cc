/**
 * @file
 * Optimizer tests: Adam reduces simple objectives, bias correction
 * behaves, zeroGrad clears, scalars are counted.
 */

#include <gtest/gtest.h>

#include "tensor/ops.hh"
#include "tensor/optim.hh"
#include "util/rng.hh"

using namespace cascade;
using namespace cascade::ops;

namespace {

/** Loss ||x - target||^2 for a 1x3 parameter. */
Variable
quadratic(const Variable &x, const Tensor &target)
{
    return sumAll(square(sub(x, Variable(target))));
}

} // namespace

TEST(Adam, ConvergesOnQuadratic)
{
    Tensor target(1, 3, {0.3f, -0.7f, 2.0f});
    Variable x(Tensor::zeros(1, 3), true);
    Adam opt({x}, 0.05f);
    for (int i = 0; i < 500; ++i) {
        opt.zeroGrad();
        quadratic(x, target).backward();
        opt.step();
    }
    for (size_t c = 0; c < 3; ++c)
        EXPECT_NEAR(x.value().at(0, c), target.at(0, c), 1e-2);
}

TEST(Adam, FirstStepSizeIsLearningRate)
{
    // With bias correction, |first update| == lr regardless of the
    // gradient scale.
    Variable x(Tensor::zeros(1, 1), true);
    Adam opt({x}, 0.01f);
    opt.zeroGrad();
    sumAll(scale(x, 1234.0f)).backward();
    opt.step();
    EXPECT_NEAR(x.value().at(0, 0), -0.01f, 1e-5);
}

TEST(Adam, HandlesMultipleParameterTensors)
{
    Rng rng(5);
    Variable a(Tensor::randn(2, 2, rng), true);
    Variable b(Tensor::randn(1, 2, rng), true);
    Adam opt({a, b}, 0.05f);
    double first = 0.0, last = 0.0;
    for (int i = 0; i < 300; ++i) {
        opt.zeroGrad();
        Variable loss = sumAll(square(add(a, b)));
        if (i == 0)
            first = loss.value().at(0, 0);
        last = loss.value().at(0, 0);
        loss.backward();
        opt.step();
    }
    EXPECT_LT(last, first * 0.01);
}

TEST(Optimizer, ZeroGradClearsAllParameters)
{
    Variable x(Tensor::ones(2, 2), true);
    Adam opt({x}, 0.1f);
    sumAll(square(x)).backward();
    EXPECT_GT(x.grad().maxAbs(), 0.0f);
    opt.zeroGrad();
    EXPECT_FLOAT_EQ(x.grad().maxAbs(), 0.0f);
}

TEST(Optimizer, CountsScalars)
{
    Variable a(Tensor::zeros(3, 4), true);
    Variable b(Tensor::zeros(1, 5), true);
    Adam opt({a, b}, 0.1f);
    EXPECT_EQ(opt.numScalars(), 17u);
}
