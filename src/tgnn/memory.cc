#include "tgnn/memory.hh"

#include <algorithm>

#include "tensor/kernels.hh"
#include "util/logging.hh"

namespace cascade {

MemoryStore::MemoryStore(size_t n, size_t dim)
    : mem_(n, dim), lastUpdate_(n, 0.0)
{}

Tensor
MemoryStore::gather(const std::vector<NodeId> &nodes) const
{
    Tensor out(nodes.size(), mem_.cols());
    for (size_t i = 0; i < nodes.size(); ++i)
        out.copyRowFrom(i, mem_, static_cast<size_t>(nodes[i]));
    return out;
}

Tensor
MemoryStore::gatherDeltaT(const std::vector<NodeId> &nodes,
                          double now) const
{
    Tensor out(nodes.size(), 1);
    for (size_t i = 0; i < nodes.size(); ++i) {
        out.at(i, 0) = static_cast<float>(
            now - lastUpdate_[static_cast<size_t>(nodes[i])]);
    }
    return out;
}

std::vector<double>
MemoryStore::write(const std::vector<NodeId> &nodes, const Tensor &values,
                   double ts)
{
    CASCADE_CHECK(values.rows() == nodes.size() &&
                      values.cols() == mem_.cols(),
                  "MemoryStore::write shape mismatch");
    std::vector<double> cos;
    cos.reserve(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
        const size_t r = static_cast<size_t>(nodes[i]);
        // Fused: one pass computes cos(old, new) and overwrites the
        // memory row, instead of a similarity pass plus a copy pass.
        cos.push_back(kernels::cosineOverwrite(mem_.row(r), values.row(i),
                                               mem_.cols()));
        lastUpdate_[r] = ts;
    }
    return cos;
}

void
MemoryStore::touch(NodeId node, double ts)
{
    lastUpdate_[static_cast<size_t>(node)] = ts;
}

void
MemoryStore::reset()
{
    mem_.fill(0.0f);
    std::fill(lastUpdate_.begin(), lastUpdate_.end(), 0.0);
}

void
MemoryStore::initRandom(Rng &rng, float stddev)
{
    for (size_t i = 0; i < mem_.size(); ++i)
        mem_.data()[i] = static_cast<float>(rng.gaussian(0.0, stddev));
    std::fill(lastUpdate_.begin(), lastUpdate_.end(), 0.0);
}

size_t
MemoryStore::bytes() const
{
    return mem_.size() * sizeof(float) +
           lastUpdate_.size() * sizeof(double);
}

} // namespace cascade
