#include "tgnn/mailbox.hh"

#include <algorithm>

#include "util/binio.hh"
#include "util/determinism.hh"
#include "util/logging.hh"

namespace cascade {

Mailbox::Mailbox(size_t slots, size_t msg_dim)
    : slots_(slots), msgDim_(msg_dim)
{
    CASCADE_CHECK(slots_ > 0 && msgDim_ > 0, "Mailbox bad dimensions");
}

void
Mailbox::push(NodeId node, const float *payload, double ts)
{
    NodeBox &box = boxes_[node];
    if (box.ring.size() < slots_)
        box.ring.resize(slots_);
    Slot &slot = box.ring[box.next];
    slot.payload.assign(payload, payload + msgDim_);
    slot.ts = ts;
    box.next = (box.next + 1) % slots_;
    ++box.count;
}

bool
Mailbox::hasMessages(NodeId node) const
{
    auto it = boxes_.find(node);
    return it != boxes_.end() && it->second.count > 0;
}

Mailbox::Gathered
Mailbox::gather(const std::vector<NodeId> &nodes, double now) const
{
    Gathered out;
    out.payloads = Tensor(nodes.size() * slots_, msgDim_);
    out.dt = Tensor(nodes.size() * slots_, 1);
    out.valid.assign(nodes.size() * slots_, 0.0f);

    for (size_t i = 0; i < nodes.size(); ++i) {
        auto it = boxes_.find(nodes[i]);
        if (it == boxes_.end() || it->second.count == 0)
            continue;
        const NodeBox &box = it->second;
        const size_t have = std::min(box.count, slots_);
        for (size_t j = 0; j < have; ++j) {
            // Most recent first: step backwards from the cursor.
            const size_t pos =
                (box.next + slots_ - 1 - j) % slots_;
            const Slot &slot = box.ring[pos];
            const size_t row = i * slots_ + j;
            std::copy(slot.payload.begin(), slot.payload.end(),
                      out.payloads.row(row));
            out.dt.at(row, 0) = static_cast<float>(now - slot.ts);
            out.valid[row] = 1.0f;
        }
    }
    return out;
}

void
Mailbox::reset()
{
    boxes_.clear();
}

void
Mailbox::saveState(ByteWriter &w) const
{
    w.u64(slots_);
    w.u64(msgDim_);
    w.u64(boxes_.size());
    // Checkpoint bytes must not depend on hash-bucket layout: a
    // save -> load -> save round trip rebuilds boxes_ with a
    // different insertion history, so raw map order would change the
    // artifact. Serialize in ascending node order instead.
    std::vector<NodeId> nodes;
    nodes.reserve(boxes_.size());
    CASCADE_NONDET_OK("keys are sorted before any byte is written")
    for (const auto &[node, box] : boxes_) {
        (void)box;
        nodes.push_back(node);
    }
    std::sort(nodes.begin(), nodes.end());
    for (NodeId node : nodes) {
        const NodeBox &box = boxes_.at(node);
        w.u64(static_cast<uint64_t>(node));
        w.u64(box.next);
        w.u64(box.count);
        w.u64(box.ring.size());
        for (const Slot &slot : box.ring) {
            // Slots never written still have an empty payload.
            w.u8(slot.payload.empty() ? 0 : 1);
            if (!slot.payload.empty()) {
                w.bytes(slot.payload.data(),
                        msgDim_ * sizeof(float));
            }
            w.f64(slot.ts);
        }
    }
}

bool
Mailbox::loadState(ByteReader &r)
{
    uint64_t slots = 0, dim = 0, nboxes = 0;
    if (!r.u64(slots) || slots != slots_ || !r.u64(dim) ||
        dim != msgDim_ || !r.u64(nboxes)) {
        return false;
    }
    std::unordered_map<NodeId, NodeBox> boxes;
    boxes.reserve(static_cast<size_t>(nboxes));
    for (uint64_t i = 0; i < nboxes; ++i) {
        uint64_t node = 0, next = 0, count = 0, ring = 0;
        if (!r.u64(node) || !r.u64(next) || !r.u64(count) ||
            !r.u64(ring) || ring > slots_ || next >= slots_ + 1) {
            return false;
        }
        NodeBox box;
        box.next = static_cast<size_t>(next);
        box.count = static_cast<size_t>(count);
        box.ring.resize(static_cast<size_t>(ring));
        for (Slot &slot : box.ring) {
            uint8_t present = 0;
            if (!r.u8(present))
                return false;
            if (present) {
                slot.payload.resize(msgDim_);
                if (!r.bytes(slot.payload.data(),
                             msgDim_ * sizeof(float))) {
                    return false;
                }
            }
            if (!r.f64(slot.ts))
                return false;
        }
        boxes.emplace(static_cast<NodeId>(node), std::move(box));
    }
    boxes_ = std::move(boxes);
    return true;
}

size_t
Mailbox::bytes() const
{
    size_t b = 0;
    CASCADE_NONDET_OK("size_t addition is commutative; feeds a gauge")
    for (const auto &[node, box] : boxes_) {
        (void)node;
        b += sizeof(NodeBox) + box.ring.size() *
             (sizeof(Slot) + msgDim_ * sizeof(float));
    }
    return b;
}

} // namespace cascade
