/**
 * @file
 * Per-node mailbox of raw messages awaiting consumption.
 *
 * Eq. 2's messages are generated when a batch's events are processed
 * and consumed (aggregated + fed to UPDT) the next time the node is
 * involved — the deferred-update scheme TGL popularized and APAN's
 * "asynchronous mailbox" generalizes. Message payloads are raw
 * (non-differentiable) vectors: [other endpoint's memory | edge
 * features]; the time delta is re-derived at consumption so it is
 * always fresh.
 */

#ifndef CASCADE_TGNN_MAILBOX_HH
#define CASCADE_TGNN_MAILBOX_HH

#include <cstdint>
#include <vector>

#include "graph/event.hh"
#include "tensor/tensor.hh"

namespace cascade {

/**
 * Ring buffer of the most recent messages per node, stored densely
 * like MemoryStore: payloads as [node x slot x msgDim] floats, their
 * timestamps as [node x slot] doubles, and one push count per node.
 * A node's next write slot is `count % slots` and it holds
 * `min(count, slots)` valid messages, so the state is a pure function
 * of the pushes since the last reset.
 *
 * Concurrency contract (checked by TSan, not lockable): like
 * MemoryStore, a Mailbox carries no mutex — push/consume run in batch
 * order, which the deferred-update semantics (consume-before-push
 * within one batch) and bit-determinism both rely on. The training
 * thread owns it outright; the session's background checkpoint
 * writer only reads an encoded copy (DESIGN.md §12).
 */
class Mailbox
{
  public:
    /**
     * @param num_nodes node universe (0 for models that never push)
     * @param slots     messages retained per node (1 for JODIE/TGN,
     *                  10 for APAN per Table 1)
     * @param msg_dim   payload width
     */
    Mailbox(size_t num_nodes, size_t slots, size_t msg_dim);

    size_t slots() const { return slots_; }
    size_t msgDim() const { return msgDim_; }

    /** Append a message for a node (evicts the oldest beyond slots). */
    void push(NodeId node, const float *payload, double ts);

    /** True if the node has at least one pending message. */
    bool
    hasMessages(NodeId node) const
    {
        return count_[static_cast<size_t>(node)] > 0;
    }

    /**
     * Gather the latest k<=slots messages for each node into a
     * (B*slots) x msgDim tensor, most recent first, zero-padded, with
     * per-slot time deltas (now - msg ts; padding gets dt = 0) and a
     * per-slot validity mask.
     */
    struct Gathered
    {
        Tensor payloads; ///< (B*slots) x msgDim
        Tensor dt;       ///< (B*slots) x 1
        std::vector<float> valid; ///< (B*slots) 1/0 mask
    };
    Gathered gather(const std::vector<NodeId> &nodes, double now) const;

    /** Drop every message (epoch restart). */
    void reset();

    /** Resident bytes of the three arrays (Figure 13c accounting). */
    size_t bytes() const;

  private:
    /** Lists the three arrays in its checkpoint section (stateArrays). */
    friend class TgnnModel;

    size_t slots_;
    size_t msgDim_;
    std::vector<float> payload_; ///< N x slots x msgDim
    std::vector<double> ts_;     ///< N x slots
    std::vector<uint64_t> count_; ///< pushes per node since reset
};

} // namespace cascade

#endif // CASCADE_TGNN_MAILBOX_HH
