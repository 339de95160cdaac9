/**
 * @file
 * Oracle tests for the blocked GEMM kernel against the retained naive
 * reference, the determinism-across-threads contract, the fused
 * cosine-overwrite kernel and the kernel metrics binding.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tensor/gradcheck.hh"
#include "tensor/kernels.hh"
#include "tensor/ops.hh"
#include "tensor/tensor.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

using namespace cascade;
using kernels::Trans;

namespace {

/** Max |a-b| over two equally-shaped tensors. */
double
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    EXPECT_TRUE(a.sameShape(b));
    double m = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(static_cast<double>(a.data()[i]) -
                                 static_cast<double>(b.data()[i])));
    return m;
}

/** Stored shape of operand X so that op(X) has the given logical dims. */
Tensor
makeOperand(Trans t, size_t logical_rows, size_t logical_cols, Rng &rng)
{
    return t == Trans::None
        ? Tensor::randn(logical_rows, logical_cols, rng)
        : Tensor::randn(logical_cols, logical_rows, rng);
}

struct Shape { size_t m, k, n; };

/**
 * Shapes chosen to exercise the MR=4 / NR=64 register-tile edges:
 * degenerate vectors, sub-tile, exact-tile and off-by-one sizes, plus
 * one shape large enough to cross the parallel-dispatch threshold.
 */
const Shape kShapes[] = {
    {1, 1, 1},   {1, 7, 1},   {3, 5, 7},    {4, 16, 64},
    {5, 17, 65}, {8, 1, 128}, {13, 33, 63}, {64, 64, 129},
    {130, 70, 66},
};

} // namespace

TEST(KernelGemm, MatchesNaiveOracleAllTransposeCombos)
{
    Rng rng(11);
    for (const Shape &s : kShapes) {
        for (Trans ta : {Trans::None, Trans::Transpose}) {
            for (Trans tb : {Trans::None, Trans::Transpose}) {
                Tensor a = makeOperand(ta, s.m, s.k, rng);
                Tensor b = makeOperand(tb, s.k, s.n, rng);
                Tensor got = kernels::gemm(ta, tb, a, b);
                Tensor want = kernels::naiveGemm(ta, tb, a, b);
                // Same-magnitude float sums in a different order; the
                // bound scales with the reduction length.
                const double tol = 1e-4 * std::sqrt(double(s.k));
                EXPECT_LE(maxAbsDiff(got, want), tol)
                    << "m=" << s.m << " k=" << s.k << " n=" << s.n
                    << " ta=" << int(ta) << " tb=" << int(tb);
            }
        }
    }
}

TEST(KernelGemm, BitIdenticalAcrossThreadCounts)
{
    // 256^3 * 2 = 33.5 Mflop: well past the parallel-dispatch
    // threshold, so thread count actually varies the banding. The
    // 244x1800x64 products are the APAN weight gradient (TN) and its
    // NT counterpart, where each band packs its own panels.
    struct Case { Trans ta, tb; Tensor a, b; };
    Rng rng(13);
    std::vector<Case> cases;
    cases.push_back({Trans::None, Trans::None,
                     Tensor::randn(256, 256, rng),
                     Tensor::randn(256, 256, rng)});
    cases.push_back({Trans::Transpose, Trans::None,
                     Tensor::randn(1800, 244, rng),
                     Tensor::randn(1800, 64, rng)});
    cases.push_back({Trans::None, Trans::Transpose,
                     Tensor::randn(244, 1800, rng),
                     Tensor::randn(64, 1800, rng)});

    for (const Case &c : cases) {
        std::vector<Tensor> results;
        for (size_t threads : {1u, 2u, 8u}) {
            ThreadPool::setGlobalThreads(threads);
            results.push_back(kernels::gemm(c.ta, c.tb, c.a, c.b));
        }
        ThreadPool::setGlobalThreads(0);

        for (size_t i = 1; i < results.size(); ++i) {
            ASSERT_TRUE(results[0].sameShape(results[i]));
            for (size_t j = 0; j < results[0].size(); ++j) {
                ASSERT_EQ(results[0].data()[j], results[i].data()[j])
                    << "ta=" << int(c.ta) << " tb=" << int(c.tb)
                    << " thread-count variant " << i << " diverged at "
                    << j;
            }
        }
    }
}

TEST(KernelGemm, AccAddsIntoExistingOutput)
{
    Rng rng(17);
    Tensor a = Tensor::randn(6, 9, rng);
    Tensor b = Tensor::randn(9, 5, rng);
    Tensor base = Tensor::randn(6, 5, rng);

    Tensor acc = base;
    kernels::gemmAcc(Trans::None, Trans::None, a, b, acc);

    Tensor prod = kernels::naiveGemm(Trans::None, Trans::None, a, b);
    for (size_t i = 0; i < acc.size(); ++i) {
        EXPECT_NEAR(acc.data()[i], base.data()[i] + prod.data()[i], 1e-4);
    }
}

TEST(KernelGemm, OutParamReshapesWrongShape)
{
    Rng rng(19);
    Tensor a = Tensor::randn(3, 4, rng);
    Tensor b = Tensor::randn(4, 2, rng);
    Tensor out(7, 7); // wrong shape on purpose
    kernels::gemm(Trans::None, Trans::None, a, b, out);
    EXPECT_EQ(out.rows(), 3u);
    EXPECT_EQ(out.cols(), 2u);
    Tensor want = kernels::naiveGemm(Trans::None, Trans::None, a, b);
    EXPECT_LE(maxAbsDiff(out, want), 1e-4);
}

TEST(KernelElementwise, OutParamVariantsMatchOperators)
{
    Rng rng(23);
    Tensor a = Tensor::randn(5, 9, rng);
    Tensor b = Tensor::randn(5, 9, rng);

    Tensor out(5, 9);
    kernels::add(a, b, out);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_FLOAT_EQ(out.data()[i], a.data()[i] + b.data()[i]);

    kernels::sub(a, b, out);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_FLOAT_EQ(out.data()[i], a.data()[i] - b.data()[i]);

    kernels::hadamard(a, b, out);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_FLOAT_EQ(out.data()[i], a.data()[i] * b.data()[i]);

    kernels::scale(a, -2.5f, out);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_FLOAT_EQ(out.data()[i], a.data()[i] * -2.5f);

    Tensor y = b;
    kernels::axpy(0.5f, a, y);
    for (size_t i = 0; i < y.size(); ++i)
        EXPECT_FLOAT_EQ(y.data()[i], b.data()[i] + 0.5f * a.data()[i]);
}

TEST(KernelReductions, RowAndColSums)
{
    Tensor a(2, 3, {1, 2, 3, 4, 5, 6});

    Tensor rs(2, 1);
    kernels::rowSum(a, rs);
    EXPECT_FLOAT_EQ(rs.at(0, 0), 6.0f);
    EXPECT_FLOAT_EQ(rs.at(1, 0), 15.0f);

    Tensor cs(1, 3);
    kernels::colSum(a, cs);
    EXPECT_FLOAT_EQ(cs.at(0, 0), 5.0f);
    EXPECT_FLOAT_EQ(cs.at(0, 1), 7.0f);
    EXPECT_FLOAT_EQ(cs.at(0, 2), 9.0f);
}

TEST(KernelReductions, RowSumOpForwardAndGradient)
{
    Rng rng(29);
    Variable a(Tensor::randn(4, 6, rng), true);

    Variable s = ops::rowSum(a);
    ASSERT_EQ(s.rows(), 4u);
    ASSERT_EQ(s.cols(), 1u);
    for (size_t r = 0; r < 4; ++r) {
        float want = 0.0f;
        for (size_t c = 0; c < 6; ++c)
            want += a.value().at(r, c);
        EXPECT_NEAR(s.value().at(r, 0), want, 1e-5);
    }

    EXPECT_LT(gradCheck({a},
                        [&] {
                            return ops::sumAll(
                                ops::square(ops::rowSum(a)));
                        }),
              1e-2);
}

TEST(KernelCosineOverwrite, MatchesCosineSimilarityAndOverwrites)
{
    Rng rng(31);
    Tensor olds = Tensor::randn(1, 33, rng);
    Tensor news = Tensor::randn(1, 33, rng);

    Tensor dst = olds;
    const double want = cosineSimilarityRows(olds, 0, news, 0);
    const double got =
        kernels::cosineOverwrite(dst.row(0), news.row(0), dst.cols());
    EXPECT_NEAR(got, want, 1e-12);
    for (size_t i = 0; i < dst.size(); ++i)
        EXPECT_EQ(dst.data()[i], news.data()[i]);
}

TEST(KernelCosineOverwrite, ZeroRowConventions)
{
    Tensor zero(1, 4);
    Tensor some(1, 4, {1, 0, 0, 0});

    // Both (near-)zero -> 1.0 (unwritten memory counts as unchanged).
    Tensor d1 = zero;
    EXPECT_EQ(kernels::cosineOverwrite(d1.row(0), zero.row(0), 4), 1.0);

    // Exactly one zero -> 0.0.
    Tensor d2 = zero;
    EXPECT_EQ(kernels::cosineOverwrite(d2.row(0), some.row(0), 4), 0.0);
    EXPECT_EQ(d2.at(0, 0), 1.0f);

    Tensor d3 = some;
    EXPECT_EQ(kernels::cosineOverwrite(d3.row(0), zero.row(0), 4), 0.0);
    EXPECT_EQ(d3.at(0, 0), 0.0f);
}

TEST(KernelStats, CountersAdvanceAndBindToRegistry)
{
    // The kernels hold no registry instruments; a TrainingSession
    // publishes the change in these counters over its run
    // (TrainingSession.KernelCountersCoverTheRun).
    const kernels::KernelStats before = kernels::stats();
    Rng rng(37);
    Tensor a = Tensor::randn(8, 8, rng);
    Tensor b = Tensor::randn(8, 8, rng);
    Tensor c = kernels::gemm(Trans::None, Trans::None, a, b);
    Tensor out(8, 8);
    kernels::add(a, b, out);

    const kernels::KernelStats after = kernels::stats();
    EXPECT_EQ(after.gemmCalls, before.gemmCalls + 1);
    EXPECT_EQ(after.gemmFlops, before.gemmFlops + 2ull * 8 * 8 * 8);
    EXPECT_GE(after.elementwiseCalls, before.elementwiseCalls + 1);
}
