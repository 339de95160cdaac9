/**
 * @file
 * Tests for the dense Tensor type and its raw (non-autograd) kernels.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/kernels.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"

using namespace cascade;
using kernels::Trans;

TEST(Tensor, ConstructionAndShape)
{
    Tensor t(3, 4);
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 4u);
    EXPECT_EQ(t.size(), 12u);
    for (size_t r = 0; r < 3; ++r)
        for (size_t c = 0; c < 4; ++c)
            EXPECT_FLOAT_EQ(t.at(r, c), 0.0f);
}

TEST(Tensor, FromDataAndAccessors)
{
    Tensor t(2, 2, {1.0f, 2.0f, 3.0f, 4.0f});
    EXPECT_FLOAT_EQ(t.at(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(t.at(1, 0), 3.0f);
    t.at(1, 1) = 9.0f;
    EXPECT_FLOAT_EQ(t.row(1)[1], 9.0f);
}

TEST(Tensor, Factories)
{
    EXPECT_FLOAT_EQ(Tensor::ones(2, 2).at(1, 1), 1.0f);
    EXPECT_FLOAT_EQ(Tensor::full(2, 2, 3.5f).at(0, 0), 3.5f);
    Rng rng(3);
    Tensor r = Tensor::randn(50, 50, rng, 2.0f);
    double sq = 0.0;
    for (size_t i = 0; i < r.size(); ++i)
        sq += r.data()[i] * r.data()[i];
    EXPECT_NEAR(std::sqrt(sq / r.size()), 2.0, 0.1);
}

TEST(Tensor, XavierBounds)
{
    Rng rng(5);
    Tensor w = Tensor::xavier(10, 20, rng);
    const float bound = std::sqrt(6.0f / 30.0f);
    for (size_t i = 0; i < w.size(); ++i) {
        ASSERT_LE(w.data()[i], bound);
        ASSERT_GE(w.data()[i], -bound);
    }
}

TEST(Tensor, InPlaceArithmetic)
{
    Tensor a(1, 3, {1, 2, 3});
    Tensor b(1, 3, {10, 20, 30});
    a += b;
    EXPECT_FLOAT_EQ(a.at(0, 2), 33.0f);
    a -= b;
    EXPECT_FLOAT_EQ(a.at(0, 2), 3.0f);
    a *= 2.0f;
    EXPECT_FLOAT_EQ(a.at(0, 0), 2.0f);
}

TEST(Tensor, SumAndMaxAbs)
{
    Tensor a(2, 2, {1, -5, 2, 3});
    EXPECT_DOUBLE_EQ(a.sum(), 1.0);
    EXPECT_FLOAT_EQ(a.maxAbs(), 5.0f);
}

TEST(Tensor, CopyRowFrom)
{
    Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
    Tensor b(2, 3);
    b.copyRowFrom(1, a, 0);
    EXPECT_FLOAT_EQ(b.at(1, 2), 3.0f);
    EXPECT_FLOAT_EQ(b.at(0, 0), 0.0f);
}

TEST(Gemm, MatchesHandComputed)
{
    Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
    Tensor b(3, 2, {7, 8, 9, 10, 11, 12});
    Tensor c = kernels::gemm(Trans::None, Trans::None, a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

namespace {

/** Transposed copy, element by element. */
Tensor
transposedCopy(const Tensor &x)
{
    Tensor t(x.cols(), x.rows());
    for (size_t r = 0; r < x.rows(); ++r)
        for (size_t c = 0; c < x.cols(); ++c)
            t.at(c, r) = x.at(r, c);
    return t;
}

} // namespace

TEST(Gemm, TransposedVariantsAgree)
{
    // Reading a transposed operand in place must give the bits of the
    // untransposed product. m = 9 leaves one edge row after two full
    // row tiles; n = 1, 8 and 31 are narrow edge panels, 32 and 63
    // zero-padded panels, 64 one full panel, 65 a full panel plus a
    // one-column edge, and 244 three full panels plus a 52-column
    // padded one; k = 1 and k = 1800 bound the inner loop.
    Rng rng(7);
    for (size_t k : {size_t(1), size_t(1800)}) {
        for (size_t n : {1, 8, 31, 32, 63, 64, 65, 244}) {
            const size_t m = 9;
            const Tensor a = Tensor::randn(m, k, rng);
            const Tensor b = Tensor::randn(k, n, rng);
            const Tensor at = transposedCopy(a), bt = transposedCopy(b);
            const Tensor base = Tensor::randn(m, n, rng);
            const Tensor want = kernels::gemm(Trans::None, Trans::None,
                                              a, b);
            Tensor want_acc = base;
            kernels::gemmAcc(Trans::None, Trans::None, a, b, want_acc);
            for (Trans ta : {Trans::None, Trans::Transpose}) {
                for (Trans tb : {Trans::None, Trans::Transpose}) {
                    const Tensor &sa = ta == Trans::None ? a : at;
                    const Tensor &sb = tb == Trans::None ? b : bt;
                    const Tensor got = kernels::gemm(ta, tb, sa, sb);
                    Tensor acc = base;
                    kernels::gemmAcc(ta, tb, sa, sb, acc);
                    ASSERT_TRUE(got.sameShape(want));
                    for (size_t i = 0; i < want.size(); ++i) {
                        ASSERT_EQ(got.data()[i], want.data()[i])
                            << "gemm k=" << k << " n=" << n << " ta="
                            << int(ta) << " tb=" << int(tb) << " at " << i;
                        ASSERT_EQ(acc.data()[i], want_acc.data()[i])
                            << "gemmAcc k=" << k << " n=" << n << " ta="
                            << int(ta) << " tb=" << int(tb) << " at " << i;
                    }
                }
            }
        }
    }
}

TEST(CosineSimilarity, KnownValues)
{
    Tensor a(2, 2, {1, 0, 0, 2});
    // Orthogonal rows.
    EXPECT_NEAR(cosineSimilarityRows(a, 0, a, 1), 0.0, 1e-6);
    // Identical direction, different magnitude.
    Tensor b(1, 2, {3, 0});
    EXPECT_NEAR(cosineSimilarityRows(a, 0, b, 0), 1.0, 1e-6);
    // Opposite.
    Tensor c(1, 2, {-1, 0});
    EXPECT_NEAR(cosineSimilarityRows(a, 0, c, 0), -1.0, 1e-6);
}

TEST(CosineSimilarity, ZeroRowConventions)
{
    Tensor z(1, 3);
    Tensor x(1, 3, {1, 2, 3});
    // Both zero: unchanged memory counts as stable.
    EXPECT_DOUBLE_EQ(cosineSimilarityRows(z, 0, z, 0), 1.0);
    // One zero: maximally changed.
    EXPECT_DOUBLE_EQ(cosineSimilarityRows(z, 0, x, 0), 0.0);
}
