/**
 * @file
 * The optimizer over a Variable parameter list: Adam (Kingma & Ba),
 * which the paper trains with.
 */

#ifndef CASCADE_TENSOR_OPTIM_HH
#define CASCADE_TENSOR_OPTIM_HH

#include <cstdint>
#include <vector>

#include "tensor/variable.hh"

namespace cascade {

/** Adam (Kingma & Ba 2014) with bias correction. */
class Adam
{
  public:
    /** @param params leaf Variables with requiresGrad set */
    Adam(std::vector<Variable> params, float lr = 1e-3f,
         float beta1 = 0.9f, float beta2 = 0.999f, float eps = 1e-8f);

    /** Apply one update from the parameters' current gradients. */
    void step();

    /** Zero every parameter gradient. */
    void zeroGrad();

    /** Parameter count (scalars) across all tensors. */
    size_t numScalars() const;

    /**
     * @name Resume state
     * Updates applied so far (the bias-correction clock) and the first
     * and second moments, one tensor per parameter in parameter order.
     * Resuming Adam without them restarts bias correction and changes
     * the training trajectory; a checkpoint copies them in place.
     */
    /** @{ */
    int64_t &stepCount() { return t_; }
    std::vector<Tensor> &firstMoments() { return m_; }
    std::vector<Tensor> &secondMoments() { return v_; }
    /** @} */

  private:
    std::vector<Variable> params_;
    float lr_, beta1_, beta2_, eps_;
    int64_t t_ = 0;
    std::vector<Tensor> m_;
    std::vector<Tensor> v_;
};

} // namespace cascade

#endif // CASCADE_TENSOR_OPTIM_HH
