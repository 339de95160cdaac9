/**
 * @file
 * Similarity-Aware Graph Filter (§4.3).
 *
 * After every memory update the trainer reports cos(s_before,
 * s_after) per updated node; a node whose similarity exceeds θ_sim is
 * flagged *stable* and stops constraining the TG-Diffuser's batch
 * boundary. Flags reset to all-false at the start of each epoch
 * (Algorithm 1, line 10).
 */

#ifndef CASCADE_CORE_SG_FILTER_HH
#define CASCADE_CORE_SG_FILTER_HH

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "graph/event.hh"

namespace cascade {

class ByteWriter;
class ByteReader;

/** Tracks per-node memory-stability flags. */
class SgFilter
{
  public:
    /**
     * @param num_nodes node universe size
     * @param threshold θ_sim; the paper default is 0.9 (§5.1)
     */
    SgFilter(size_t num_nodes, double threshold = 0.9);

    /** All-false flags (start of epoch). */
    void reset();

    /** Per-node stable flags the TG-Diffuser consumes. */
    const std::vector<uint8_t> &stableFlags() const { return flags_; }

    /**
     * Record this batch's memory updates: node i's flag becomes
     * (cos[i] > θ_sim). Also accumulates epoch counters backing the
     * Figure 5 stable-update ratio.
     *
     * Takes non-owning views so callers hand over whatever contiguous
     * storage they already have (vectors, arrays, subranges)
     * without a copy.
     */
    void update(std::span<const NodeId> nodes,
                std::span<const double> cos);

    /** Braced-list convenience (spans cannot bind to init-lists). */
    void
    update(std::initializer_list<NodeId> nodes,
           std::initializer_list<double> cos)
    {
        update(std::span<const NodeId>(nodes.begin(), nodes.size()),
               std::span<const double>(cos.begin(), cos.size()));
    }

    double threshold() const { return threshold_; }

    /** Fraction of this epoch's updates that were stable (Fig. 5). */
    double stableUpdateRatio() const;

    /** Currently-flagged node count. */
    size_t stableCount() const { return stableCount_; }

    /** Resident bytes of the flag array (Figure 13c's "SF"). */
    size_t bytes() const { return flags_.size() * sizeof(uint8_t); }

    /** Serialize flags and epoch counters (checkpointing). */
    void saveState(ByteWriter &w) const;

    /**
     * Restore state written by saveState.
     * @return false on size mismatch or short payload (untouched)
     */
    bool loadState(ByteReader &r);

  private:
    double threshold_;
    std::vector<uint8_t> flags_;
    size_t stableCount_ = 0;
    size_t updatesTotal_ = 0;
    size_t updatesStable_ = 0;
};

} // namespace cascade

#endif // CASCADE_CORE_SG_FILTER_HH
