#include "tensor/optim.hh"

#include <cmath>

#include "util/logging.hh"

namespace cascade {

Adam::Adam(std::vector<Variable> params, float lr, float beta1,
           float beta2, float eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps)
{
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (const auto &p : params_) {
        CASCADE_CHECK(p.requiresGrad(),
                      "optimizer parameter must require grad");
        m_.emplace_back(p.value().rows(), p.value().cols());
        v_.emplace_back(p.value().rows(), p.value().cols());
    }
}

void
Adam::zeroGrad()
{
    for (auto &p : params_)
        p.zeroGrad();
}

size_t
Adam::numScalars() const
{
    size_t n = 0;
    for (const auto &p : params_)
        n += p.value().size();
    return n;
}

void
Adam::step()
{
    ++t_;
    const double bc1 = 1.0 - std::pow(beta1_, t_);
    const double bc2 = 1.0 - std::pow(beta2_, t_);
    for (size_t pi = 0; pi < params_.size(); ++pi) {
        Tensor &val = params_[pi].valueMutable();
        const Tensor &g = params_[pi].grad();
        Tensor &m = m_[pi];
        Tensor &v = v_[pi];
        for (size_t i = 0; i < val.size(); ++i) {
            const float gv = g.data()[i];
            m.data()[i] = beta1_ * m.data()[i] + (1.0f - beta1_) * gv;
            v.data()[i] = beta2_ * v.data()[i] + (1.0f - beta2_) * gv * gv;
            const double mhat = m.data()[i] / bc1;
            const double vhat = v.data()[i] / bc2;
            val.data()[i] -= static_cast<float>(
                lr_ * mhat / (std::sqrt(vhat) + eps_));
        }
    }
}

} // namespace cascade
