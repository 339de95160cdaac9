#include "tensor/variable.hh"

#include <unordered_set>

#include "tensor/kernels.hh"
#include "util/logging.hh"

namespace cascade {

namespace detail {

Node::~Node()
{
    // Tensors that flowed through the autograd graph are the compute
    // hot path's dominant allocations; parking their storage in the
    // kernel buffer pool lets the next batch's forward/backward pass
    // run allocation-free.
    kernels::recycle(std::move(value));
    kernels::recycle(std::move(grad));
}

Tensor &
Node::ensureGrad()
{
    if (!gradReady) {
        grad = kernels::zeros(value.rows(), value.cols());
        gradReady = true;
    }
    return grad;
}

} // namespace detail

Variable::Variable(Tensor value, bool requires_grad)
{
    node_ = std::make_shared<detail::Node>();
    node_->value = std::move(value);
    node_->requiresGrad = requires_grad;
}

const Tensor &
Variable::grad() const
{
    CASCADE_CHECK(node_ != nullptr, "grad() on null Variable");
    return node_->ensureGrad();
}

void
Variable::zeroGrad()
{
    if (!node_)
        return;
    node_->ensureGrad().fill(0.0f);
}

void
Variable::backward() const
{
    CASCADE_CHECK(node_ != nullptr, "backward() on null Variable");
    CASCADE_CHECK(node_->value.rows() == 1 && node_->value.cols() == 1,
                  "backward() requires a scalar (1x1) root");

    // Iterative post-order DFS to get a topological order.
    std::vector<detail::Node *> topo;
    std::unordered_set<detail::Node *> visited;
    struct Frame { detail::Node *node; size_t next; };
    std::vector<Frame> stack;
    stack.push_back({node_.get(), 0});
    visited.insert(node_.get());
    while (!stack.empty()) {
        Frame &f = stack.back();
        if (f.next < f.node->parents.size()) {
            detail::Node *p = f.node->parents[f.next++].get();
            if (p->requiresGrad && visited.insert(p).second)
                stack.push_back({p, 0});
        } else {
            topo.push_back(f.node);
            stack.pop_back();
        }
    }

    // Intermediate (non-leaf) gradients are scratch space: clear them
    // so repeated backward() calls accumulate into leaves only. A
    // missing gradient is allocated zeroed, so only a gradient left by
    // an earlier backward() needs the fill.
    for (detail::Node *n : topo) {
        if (!n->backward)
            continue;
        if (n->gradReady)
            n->grad.fill(0.0f);
        else
            n->ensureGrad();
    }

    node_->ensureGrad().fill(1.0f);
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        detail::Node *n = *it;
        if (n->backward && n->requiresGrad) {
            n->ensureGrad();
            n->backward(*n);
        }
    }
}

Variable
Variable::detach() const
{
    CASCADE_CHECK(node_ != nullptr, "detach() on null Variable");
    return Variable(node_->value, false);
}

} // namespace cascade
