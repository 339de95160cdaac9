/**
 * @file
 * Reverse-mode automatic differentiation handle.
 *
 * A Variable wraps a shared autograd Node holding a value, a lazily
 * allocated gradient, parent links and a backward closure. Calling
 * backward() on a scalar (1x1) Variable topologically sorts the graph
 * and accumulates gradients into every Node that requires them —
 * exactly the machinery PyTorch provides the original Cascade
 * implementation.
 */

#ifndef CASCADE_TENSOR_VARIABLE_HH
#define CASCADE_TENSOR_VARIABLE_HH

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.hh"

namespace cascade {

namespace detail {

/** Internal autograd graph node. */
struct Node
{
    Tensor value;
    Tensor grad;
    bool requiresGrad = false;
    bool gradReady = false;
    std::vector<std::shared_ptr<Node>> parents;
    /** Accumulates this node's grad into its parents' grads. */
    std::function<void(Node &)> backward;

    Node() = default;
    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    /** Gradient tensor, allocated zeroed on first access. */
    Tensor &ensureGrad();
};

} // namespace detail

/** Shared handle to an autograd node. */
class Variable
{
  public:
    /** Null handle; most APIs treat it as "absent". */
    Variable() = default;

    /** Leaf variable from a tensor. */
    explicit Variable(Tensor value, bool requires_grad = false);

    /** True if the handle points at a node. */
    bool defined() const { return static_cast<bool>(node_); }

    const Tensor &value() const { return node_->value; }
    Tensor &valueMutable() { return node_->value; }

    /** Gradient (zeros if backward has not reached this node). */
    const Tensor &grad() const;

    bool requiresGrad() const { return node_ && node_->requiresGrad; }

    size_t rows() const { return node_->value.rows(); }
    size_t cols() const { return node_->value.cols(); }

    /** Reset this node's gradient to zeros. */
    void zeroGrad();

    /**
     * Run reverse-mode autodiff from this scalar.
     * @pre value() is 1x1.
     */
    void backward() const;

    /** A new leaf sharing a copy of the value, cut from the graph. */
    Variable detach() const;

    /** Internal node access (ops and optimizer bookkeeping). */
    const std::shared_ptr<detail::Node> &node() const { return node_; }

    /** Build a non-leaf variable (used by ops.cc). */
    static Variable
    fromNode(std::shared_ptr<detail::Node> node)
    {
        Variable v;
        v.node_ = std::move(node);
        return v;
    }

  private:
    std::shared_ptr<detail::Node> node_;
};

} // namespace cascade

#endif // CASCADE_TENSOR_VARIABLE_HH
