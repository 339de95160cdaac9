#include "tgnn/mailbox.hh"

#include <algorithm>
#include <cstring>

#include "util/logging.hh"

namespace cascade {

Mailbox::Mailbox(size_t num_nodes, size_t slots, size_t msg_dim)
    : slots_(slots), msgDim_(msg_dim),
      payload_(num_nodes * slots * msg_dim, 0.0f),
      ts_(num_nodes * slots, 0.0), count_(num_nodes, 0)
{
    CASCADE_CHECK(slots_ > 0 && msgDim_ > 0, "Mailbox bad dimensions");
}

void
Mailbox::push(NodeId node, const float *payload, double ts)
{
    const size_t n = static_cast<size_t>(node);
    CASCADE_CHECK(n < count_.size(), "Mailbox::push node out of range");
    const size_t slot = n * slots_ + count_[n] % slots_;
    std::memcpy(&payload_[slot * msgDim_], payload,
                msgDim_ * sizeof(float));
    ts_[slot] = ts;
    ++count_[n];
}

Mailbox::Gathered
Mailbox::gather(const std::vector<NodeId> &nodes, double now) const
{
    Gathered out;
    out.payloads = Tensor(nodes.size() * slots_, msgDim_);
    out.dt = Tensor(nodes.size() * slots_, 1);
    out.valid.assign(nodes.size() * slots_, 0.0f);

    for (size_t i = 0; i < nodes.size(); ++i) {
        const size_t n = static_cast<size_t>(nodes[i]);
        const uint64_t count = count_[n];
        const size_t have = static_cast<size_t>(
            std::min<uint64_t>(count, slots_));
        for (size_t j = 0; j < have; ++j) {
            // Most recent first: step backwards from the last write.
            const size_t slot = n * slots_ + (count - 1 - j) % slots_;
            const size_t row = i * slots_ + j;
            std::memcpy(out.payloads.row(row), &payload_[slot * msgDim_],
                        msgDim_ * sizeof(float));
            out.dt.at(row, 0) = static_cast<float>(now - ts_[slot]);
            out.valid[row] = 1.0f;
        }
    }
    return out;
}

void
Mailbox::reset()
{
    std::fill(payload_.begin(), payload_.end(), 0.0f);
    std::fill(ts_.begin(), ts_.end(), 0.0);
    std::fill(count_.begin(), count_.end(), 0);
}

size_t
Mailbox::bytes() const
{
    return payload_.size() * sizeof(float) + ts_.size() * sizeof(double) +
           count_.size() * sizeof(uint64_t);
}

} // namespace cascade
