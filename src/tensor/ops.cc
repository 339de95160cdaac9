#include "tensor/ops.hh"

#include <cmath>
#include <utility>

#include "tensor/kernels.hh"
#include "util/logging.hh"

namespace cascade {
namespace ops {

namespace {

using detail::Node;
using NodePtr = std::shared_ptr<Node>;
using kernels::Trans;

/** Build a result node with the given parents and backward closure. */
Variable
makeNode(Tensor value, std::vector<NodePtr> parents,
         std::function<void(Node &)> backward)
{
    auto node = std::make_shared<Node>();
    node->value = std::move(value);
    for (const auto &p : parents)
        node->requiresGrad = node->requiresGrad || p->requiresGrad;
    node->parents = std::move(parents);
    if (node->requiresGrad)
        node->backward = std::move(backward);
    return Variable::fromNode(std::move(node));
}

} // namespace

Variable
matmul(const Variable &a, const Variable &b)
{
    Tensor out =
        kernels::gemm(Trans::None, Trans::None, a.value(), b.value());
    NodePtr pa = a.node(), pb = b.node();
    return makeNode(std::move(out), {pa, pb}, [pa, pb](Node &n) {
        // gemmAcc scatters the product straight into the gradient
        // tensors — no temporary, no allocation.
        if (pa->requiresGrad)
            kernels::gemmAcc(Trans::None, Trans::Transpose, n.grad,
                             pb->value, pa->ensureGrad());
        if (pb->requiresGrad)
            kernels::gemmAcc(Trans::Transpose, Trans::None, pa->value,
                             n.grad, pb->ensureGrad());
    });
}

Variable
add(const Variable &a, const Variable &b)
{
    const Tensor &av = a.value();
    const Tensor &bv = b.value();
    NodePtr pa = a.node(), pb = b.node();

    if (av.sameShape(bv)) {
        Tensor out(av.rows(), av.cols());
        kernels::add(av, bv, out);
        return makeNode(std::move(out), {pa, pb}, [pa, pb](Node &n) {
            if (pa->requiresGrad)
                pa->ensureGrad() += n.grad;
            if (pb->requiresGrad)
                pb->ensureGrad() += n.grad;
        });
    }
    if (bv.rows() == 1 && bv.cols() == av.cols()) {
        // Row-broadcast bias.
        Tensor out = av;
        for (size_t r = 0; r < out.rows(); ++r)
            for (size_t c = 0; c < out.cols(); ++c)
                out.at(r, c) += bv.at(0, c);
        return makeNode(std::move(out), {pa, pb}, [pa, pb](Node &n) {
            if (pa->requiresGrad)
                pa->ensureGrad() += n.grad;
            if (pb->requiresGrad) {
                // 1xC bias gradient: column-sum of the upstream grad.
                Tensor scratch(1, n.grad.cols());
                kernels::colSum(n.grad, scratch);
                pb->ensureGrad() += scratch;
            }
        });
    }
    if (bv.cols() == 1 && bv.rows() == av.rows()) {
        // Column-broadcast (per-row scalar).
        Tensor out = av;
        for (size_t r = 0; r < out.rows(); ++r)
            for (size_t c = 0; c < out.cols(); ++c)
                out.at(r, c) += bv.at(r, 0);
        return makeNode(std::move(out), {pa, pb}, [pa, pb](Node &n) {
            if (pa->requiresGrad)
                pa->ensureGrad() += n.grad;
            if (pb->requiresGrad) {
                Tensor &g = pb->ensureGrad();
                for (size_t r = 0; r < n.grad.rows(); ++r)
                    for (size_t c = 0; c < n.grad.cols(); ++c)
                        g.at(r, 0) += n.grad.at(r, c);
            }
        });
    }
    CASCADE_PANIC("add: incompatible shapes");
}

Variable
sub(const Variable &a, const Variable &b)
{
    CASCADE_CHECK(a.value().sameShape(b.value()), "sub shape mismatch");
    Tensor out(a.value().rows(), a.value().cols());
    kernels::sub(a.value(), b.value(), out);
    NodePtr pa = a.node(), pb = b.node();
    return makeNode(std::move(out), {pa, pb}, [pa, pb](Node &n) {
        if (pa->requiresGrad)
            pa->ensureGrad() += n.grad;
        if (pb->requiresGrad)
            pb->ensureGrad() -= n.grad;
    });
}

Variable
mul(const Variable &a, const Variable &b)
{
    const Tensor &av = a.value();
    const Tensor &bv = b.value();
    NodePtr pa = a.node(), pb = b.node();

    if (av.sameShape(bv)) {
        Tensor out(av.rows(), av.cols());
        kernels::hadamard(av, bv, out);
        return makeNode(std::move(out), {pa, pb}, [pa, pb](Node &n) {
            if (pa->requiresGrad) {
                Tensor &g = pa->ensureGrad();
                for (size_t i = 0; i < g.size(); ++i)
                    g.data()[i] += n.grad.data()[i] * pb->value.data()[i];
            }
            if (pb->requiresGrad) {
                Tensor &g = pb->ensureGrad();
                for (size_t i = 0; i < g.size(); ++i)
                    g.data()[i] += n.grad.data()[i] * pa->value.data()[i];
            }
        });
    }
    CASCADE_CHECK(bv.cols() == 1 && bv.rows() == av.rows(),
                  "mul: b must match a or be a Bx1 column");
    Tensor out = av;
    for (size_t r = 0; r < out.rows(); ++r) {
        const float s = bv.at(r, 0);
        for (size_t c = 0; c < out.cols(); ++c)
            out.at(r, c) *= s;
    }
    return makeNode(std::move(out), {pa, pb}, [pa, pb](Node &n) {
        if (pa->requiresGrad) {
            Tensor &g = pa->ensureGrad();
            for (size_t r = 0; r < n.grad.rows(); ++r) {
                const float s = pb->value.at(r, 0);
                for (size_t c = 0; c < n.grad.cols(); ++c)
                    g.at(r, c) += n.grad.at(r, c) * s;
            }
        }
        if (pb->requiresGrad) {
            Tensor &g = pb->ensureGrad();
            for (size_t r = 0; r < n.grad.rows(); ++r) {
                double acc = 0.0;
                for (size_t c = 0; c < n.grad.cols(); ++c)
                    acc += static_cast<double>(n.grad.at(r, c)) *
                           pa->value.at(r, c);
                g.at(r, 0) += static_cast<float>(acc);
            }
        }
    });
}

Variable
scale(const Variable &a, float s)
{
    Tensor out(a.value().rows(), a.value().cols());
    kernels::scale(a.value(), s, out);
    NodePtr pa = a.node();
    return makeNode(std::move(out), {pa}, [pa, s](Node &n) {
        if (pa->requiresGrad)
            kernels::axpy(s, n.grad, pa->ensureGrad());
    });
}

namespace {

/** Shared scaffolding for unary elementwise ops with local derivative
 *  computable from input and output values. */
template <typename Fwd, typename Bwd>
Variable
elementwise(const Variable &a, Fwd fwd, Bwd bwd)
{
    const Tensor &av = a.value();
    Tensor out(av.rows(), av.cols());
    for (size_t i = 0; i < av.size(); ++i)
        out.data()[i] = fwd(av.data()[i]);
    NodePtr pa = a.node();
    return makeNode(std::move(out), {pa}, [pa, bwd](Node &n) {
        if (!pa->requiresGrad)
            return;
        Tensor &g = pa->ensureGrad();
        for (size_t i = 0; i < g.size(); ++i) {
            g.data()[i] += n.grad.data()[i] *
                           bwd(pa->value.data()[i], n.value.data()[i]);
        }
    });
}

} // namespace

Variable
sigmoid(const Variable &a)
{
    return elementwise(
        a,
        [](float x) {
            return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                             : std::exp(x) / (1.0f + std::exp(x));
        },
        [](float, float y) { return y * (1.0f - y); });
}

Variable
tanhOp(const Variable &a)
{
    return elementwise(a, [](float x) { return std::tanh(x); },
                       [](float, float y) { return 1.0f - y * y; });
}

Variable
relu(const Variable &a)
{
    return elementwise(a, [](float x) { return x > 0.0f ? x : 0.0f; },
                       [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Variable
leakyRelu(const Variable &a, float slope)
{
    return elementwise(
        a, [slope](float x) { return x > 0.0f ? x : slope * x; },
        [slope](float x, float) { return x > 0.0f ? 1.0f : slope; });
}

Variable
cosOp(const Variable &a)
{
    return elementwise(a, [](float x) { return std::cos(x); },
                       [](float x, float) { return -std::sin(x); });
}

Variable
square(const Variable &a)
{
    return elementwise(a, [](float x) { return x * x; },
                       [](float x, float) { return 2.0f * x; });
}

Variable
concatCols(const Variable &a, const Variable &b)
{
    const Tensor &av = a.value();
    const Tensor &bv = b.value();
    CASCADE_CHECK(av.rows() == bv.rows(), "concatCols row mismatch");
    Tensor out(av.rows(), av.cols() + bv.cols());
    for (size_t r = 0; r < av.rows(); ++r) {
        std::copy(av.row(r), av.row(r) + av.cols(), out.row(r));
        std::copy(bv.row(r), bv.row(r) + bv.cols(),
                  out.row(r) + av.cols());
    }
    NodePtr pa = a.node(), pb = b.node();
    const size_t ac = av.cols();
    return makeNode(std::move(out), {pa, pb}, [pa, pb, ac](Node &n) {
        if (pa->requiresGrad) {
            Tensor &g = pa->ensureGrad();
            for (size_t r = 0; r < g.rows(); ++r)
                for (size_t c = 0; c < ac; ++c)
                    g.at(r, c) += n.grad.at(r, c);
        }
        if (pb->requiresGrad) {
            Tensor &g = pb->ensureGrad();
            for (size_t r = 0; r < g.rows(); ++r)
                for (size_t c = 0; c < g.cols(); ++c)
                    g.at(r, c) += n.grad.at(r, ac + c);
        }
    });
}

Variable
sliceCols(const Variable &a, size_t c0, size_t c1)
{
    const Tensor &av = a.value();
    CASCADE_CHECK(c0 < c1 && c1 <= av.cols(), "sliceCols bad range");
    Tensor out(av.rows(), c1 - c0);
    for (size_t r = 0; r < av.rows(); ++r)
        std::copy(av.row(r) + c0, av.row(r) + c1, out.row(r));
    NodePtr pa = a.node();
    return makeNode(std::move(out), {pa}, [pa, c0](Node &n) {
        if (!pa->requiresGrad)
            return;
        Tensor &g = pa->ensureGrad();
        for (size_t r = 0; r < n.grad.rows(); ++r)
            for (size_t c = 0; c < n.grad.cols(); ++c)
                g.at(r, c0 + c) += n.grad.at(r, c);
    });
}

Variable
gatherRows(const Variable &a, std::vector<int64_t> rows)
{
    const Tensor &av = a.value();
    Tensor out(rows.size(), av.cols());
    for (size_t i = 0; i < rows.size(); ++i) {
        CASCADE_CHECK(rows[i] >= 0 &&
                          static_cast<size_t>(rows[i]) < av.rows(),
                      "gatherRows index out of range");
        out.copyRowFrom(i, av, static_cast<size_t>(rows[i]));
    }
    NodePtr pa = a.node();
    auto idx = std::make_shared<std::vector<int64_t>>(std::move(rows));
    return makeNode(std::move(out), {pa}, [pa, idx](Node &n) {
        if (!pa->requiresGrad)
            return;
        Tensor &g = pa->ensureGrad();
        for (size_t i = 0; i < idx->size(); ++i) {
            const size_t r = static_cast<size_t>((*idx)[i]);
            for (size_t c = 0; c < n.grad.cols(); ++c)
                g.at(r, c) += n.grad.at(i, c);
        }
    });
}

Variable
sumAll(const Variable &a)
{
    Tensor out(1, 1);
    out.at(0, 0) = static_cast<float>(a.value().sum());
    NodePtr pa = a.node();
    return makeNode(std::move(out), {pa}, [pa](Node &n) {
        if (!pa->requiresGrad)
            return;
        Tensor &g = pa->ensureGrad();
        const float s = n.grad.at(0, 0);
        for (size_t i = 0; i < g.size(); ++i)
            g.data()[i] += s;
    });
}

Variable
rowSum(const Variable &a)
{
    const Tensor &av = a.value();
    Tensor out(av.rows(), 1);
    kernels::rowSum(av, out);
    NodePtr pa = a.node();
    return makeNode(std::move(out), {pa}, [pa](Node &n) {
        if (!pa->requiresGrad)
            return;
        // d/dA sum_c A[r,c] = 1: broadcast the Rx1 grad across cols.
        Tensor &g = pa->ensureGrad();
        for (size_t r = 0; r < g.rows(); ++r) {
            const float s = n.grad.at(r, 0);
            float *grow = g.row(r);
            for (size_t c = 0; c < g.cols(); ++c)
                grow[c] += s;
        }
    });
}

Variable
meanAll(const Variable &a)
{
    const float inv = 1.0f / static_cast<float>(a.value().size());
    return scale(sumAll(a), inv);
}

Variable
groupedMeanRows(const Variable &a, size_t k)
{
    const Tensor &av = a.value();
    CASCADE_CHECK(k > 0 && av.rows() % k == 0,
                  "groupedMeanRows: rows not divisible by k");
    const size_t groups = av.rows() / k;
    Tensor out(groups, av.cols());
    const float inv = 1.0f / static_cast<float>(k);
    for (size_t g = 0; g < groups; ++g)
        for (size_t j = 0; j < k; ++j)
            for (size_t c = 0; c < av.cols(); ++c)
                out.at(g, c) += av.at(g * k + j, c) * inv;
    NodePtr pa = a.node();
    return makeNode(std::move(out), {pa}, [pa, k, inv](Node &n) {
        if (!pa->requiresGrad)
            return;
        Tensor &g = pa->ensureGrad();
        for (size_t i = 0; i < g.rows(); ++i)
            for (size_t c = 0; c < g.cols(); ++c)
                g.at(i, c) += n.grad.at(i / k, c) * inv;
    });
}

Variable
groupedSoftmax(const Variable &scores, size_t k)
{
    const Tensor &sv = scores.value();
    CASCADE_CHECK(sv.cols() == 1, "groupedSoftmax expects a column");
    CASCADE_CHECK(k > 0 && sv.rows() % k == 0,
                  "groupedSoftmax: rows not divisible by k");
    const size_t groups = sv.rows() / k;
    Tensor out(sv.rows(), 1);
    for (size_t g = 0; g < groups; ++g) {
        float mx = sv.at(g * k, 0);
        for (size_t j = 1; j < k; ++j)
            mx = std::max(mx, sv.at(g * k + j, 0));
        double denom = 0.0;
        for (size_t j = 0; j < k; ++j) {
            const float e = std::exp(sv.at(g * k + j, 0) - mx);
            out.at(g * k + j, 0) = e;
            denom += e;
        }
        for (size_t j = 0; j < k; ++j)
            out.at(g * k + j, 0) /= static_cast<float>(denom);
    }
    NodePtr pa = scores.node();
    return makeNode(std::move(out), {pa}, [pa, k](Node &n) {
        if (!pa->requiresGrad)
            return;
        Tensor &g = pa->ensureGrad();
        const size_t groups = n.value.rows() / k;
        for (size_t gi = 0; gi < groups; ++gi) {
            double dot = 0.0;
            for (size_t j = 0; j < k; ++j) {
                dot += static_cast<double>(n.grad.at(gi * k + j, 0)) *
                       n.value.at(gi * k + j, 0);
            }
            for (size_t j = 0; j < k; ++j) {
                const float y = n.value.at(gi * k + j, 0);
                g.at(gi * k + j, 0) +=
                    y * (n.grad.at(gi * k + j, 0) -
                         static_cast<float>(dot));
            }
        }
    });
}

Variable
groupedWeightedSum(const Variable &weights, const Variable &feats, size_t k)
{
    const Tensor &wv = weights.value();
    const Tensor &fv = feats.value();
    CASCADE_CHECK(wv.cols() == 1 && wv.rows() == fv.rows(),
                  "groupedWeightedSum shape mismatch");
    CASCADE_CHECK(k > 0 && fv.rows() % k == 0,
                  "groupedWeightedSum: rows not divisible by k");
    const size_t groups = fv.rows() / k;
    Tensor out(groups, fv.cols());
    for (size_t g = 0; g < groups; ++g)
        for (size_t j = 0; j < k; ++j) {
            const float w = wv.at(g * k + j, 0);
            for (size_t c = 0; c < fv.cols(); ++c)
                out.at(g, c) += w * fv.at(g * k + j, c);
        }
    NodePtr pw = weights.node(), pf = feats.node();
    return makeNode(std::move(out), {pw, pf}, [pw, pf, k](Node &n) {
        const size_t groups = n.value.rows();
        if (pw->requiresGrad) {
            Tensor &g = pw->ensureGrad();
            for (size_t gi = 0; gi < groups; ++gi)
                for (size_t j = 0; j < k; ++j) {
                    double acc = 0.0;
                    for (size_t c = 0; c < n.grad.cols(); ++c)
                        acc += static_cast<double>(n.grad.at(gi, c)) *
                               pf->value.at(gi * k + j, c);
                    g.at(gi * k + j, 0) += static_cast<float>(acc);
                }
        }
        if (pf->requiresGrad) {
            Tensor &g = pf->ensureGrad();
            for (size_t gi = 0; gi < groups; ++gi)
                for (size_t j = 0; j < k; ++j) {
                    const float w = pw->value.at(gi * k + j, 0);
                    for (size_t c = 0; c < n.grad.cols(); ++c)
                        g.at(gi * k + j, c) += w * n.grad.at(gi, c);
                }
        }
    });
}

Variable
bceWithLogits(const Variable &logits, const Tensor &targets)
{
    const Tensor &lv = logits.value();
    CASCADE_CHECK(lv.cols() == 1 && lv.sameShape(targets),
                  "bceWithLogits expects matching Bx1 shapes");
    const size_t b = lv.rows();
    Tensor out(1, 1);
    double loss = 0.0;
    for (size_t i = 0; i < b; ++i) {
        const float x = lv.at(i, 0);
        const float t = targets.at(i, 0);
        // log(1 + exp(-|x|)) + max(x, 0) - x*t, the stable form.
        loss += std::log1p(std::exp(-std::abs(x))) +
                std::max(x, 0.0f) - x * t;
    }
    out.at(0, 0) = static_cast<float>(loss / b);
    NodePtr pl = logits.node();
    auto tgt = std::make_shared<Tensor>(targets);
    return makeNode(std::move(out), {pl}, [pl, tgt, b](Node &n) {
        if (!pl->requiresGrad)
            return;
        Tensor &g = pl->ensureGrad();
        const float go = n.grad.at(0, 0) / static_cast<float>(b);
        for (size_t i = 0; i < b; ++i) {
            const float x = pl->value.at(i, 0);
            const float s = x >= 0.0f
                ? 1.0f / (1.0f + std::exp(-x))
                : std::exp(x) / (1.0f + std::exp(x));
            g.at(i, 0) += go * (s - tgt->at(i, 0));
        }
    });
}

Tensor
sigmoidRaw(const Tensor &a)
{
    Tensor out(a.rows(), a.cols());
    for (size_t i = 0; i < out.size(); ++i) {
        const float x = a.data()[i];
        out.data()[i] = x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                                  : std::exp(x) / (1.0f + std::exp(x));
    }
    return out;
}

} // namespace ops
} // namespace cascade
