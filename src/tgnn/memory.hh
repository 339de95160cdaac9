/**
 * @file
 * Node memory store (the s_v state vectors of §2.2).
 *
 * Memories live outside the autograd graph: each training batch reads
 * them as leaves, pushes updated values back after the optimizer step,
 * and records the pre/post cosine similarity the SG-Filter consumes.
 */

#ifndef CASCADE_TGNN_MEMORY_HH
#define CASCADE_TGNN_MEMORY_HH

#include <cstdint>
#include <vector>

#include "graph/event.hh"
#include "tensor/tensor.hh"

namespace cascade {

/**
 * Dense per-node memory vectors with last-update timestamps.
 *
 * Concurrency contract (checked by TSan, not lockable): a MemoryStore
 * carries no mutex by design — gather/write/touch all mutate or read
 * rows in batch order, and the bit-determinism guarantee (DESIGN.md
 * §9) depends on that order being the program order of the training
 * loop. The store belongs to the training thread outright; the
 * session's background checkpoint writer only reads an encoded copy
 * (DESIGN.md §12), and the serve engine publishes clones.
 */
class MemoryStore
{
  public:
    /** All-zero memories for n nodes of width dim. */
    MemoryStore(size_t n, size_t dim);

    size_t numNodes() const { return mem_.rows(); }
    size_t dim() const { return mem_.cols(); }

    /** Rows for the given nodes as a BxD tensor. */
    Tensor gather(const std::vector<NodeId> &nodes) const;

    /** Column of (now - lastUpdate) per node, Bx1. */
    Tensor gatherDeltaT(const std::vector<NodeId> &nodes,
                        double now) const;

    /**
     * Overwrite node rows from a BxD tensor and stamp their update
     * times; returns the cosine similarity between old and new memory
     * per node (the SG-Filter signal).
     */
    std::vector<double> write(const std::vector<NodeId> &nodes,
                              const Tensor &values, double ts);

    /** Stamp interaction time without changing the memory. */
    void touch(NodeId node, double ts);

    double lastUpdate(NodeId n) const
    {
        return lastUpdate_[static_cast<size_t>(n)];
    }

    const Tensor &raw() const { return mem_; }

    /** Zero all memories and timestamps (start of training). */
    void reset();

    /**
     * Gaussian-initialize memories (static node features for memory-
     * less models such as TGAT).
     */
    void initRandom(Rng &rng, float stddev);

    /** Approximate resident bytes (Figure 13c accounting). */
    size_t bytes() const;

  private:
    /** Lists both arrays in its checkpoint section (stateArrays). */
    friend class TgnnModel;

    Tensor mem_;
    std::vector<double> lastUpdate_;
};

} // namespace cascade

#endif // CASCADE_TGNN_MEMORY_HH
