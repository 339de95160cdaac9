/**
 * @file
 * The TG-Diffuser's node-event dependency table (Algorithm 2, §4.2).
 *
 * Entry D[n] holds, sorted and deduplicated:
 *   (a) the indices of every event incident to node n, and
 *   (b) for each incident event e(n,q) at index i, the indices of q's
 *       events with index > i (a neighbor's *future* events affect n's
 *       memory through n's next update; its past events do not).
 *
 * The table is one CSR (TGL's T-CSR layout): per-node offsets into a
 * single exact-size array of event indices stored relative to the
 * range start as uint32. It is built in parallel over nodes in two
 * passes — count, then fill in place — and is immutable afterwards.
 * The chunked variant (§4.2 "Chunk-based Optimization") builds one
 * table per range of consecutive events, truncating dependencies at
 * the chunk boundary.
 */

#ifndef CASCADE_CORE_DEPENDENCY_TABLE_HH
#define CASCADE_CORE_DEPENDENCY_TABLE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "graph/adjacency.hh"
#include "graph/event.hh"
#include "graph/event_source.hh"

namespace cascade {

/** Immutable per-node dependency entries over an event range. */
class DependencyTable
{
  public:
    /**
     * Build over events [lo, hi) of the sequence (Algorithm 2).
     * Neighbor future-events are truncated to < hi, which is exactly
     * the chunk-boundary rule; lo=0, hi=N gives the full table.
     * @pre hi - lo <= UINT32_MAX
     */
    static DependencyTable build(const EventSource &src,
                                 const TemporalAdjacency &adj,
                                 size_t lo, size_t hi);

    /** Build from a resident sequence. */
    static DependencyTable
    build(const EventSequence &seq, const TemporalAdjacency &adj,
          size_t lo, size_t hi)
    {
        return build(VectorEventSource(seq), adj, lo, hi);
    }

    /**
     * Sorted unique dependent events of node n, as offsets from
     * rangeLo() (event rangeLo() + e for each e).
     */
    std::span<const uint32_t>
    entry(NodeId n) const
    {
        const size_t i = static_cast<size_t>(n);
        return {index_.data() + offsets_[i],
                index_.data() + offsets_[i + 1]};
    }

    size_t numNodes() const { return offsets_.size() - 1; }
    size_t rangeLo() const { return lo_; }
    size_t rangeHi() const { return hi_; }

    /** Nodes with at least one entry (lookup iterates only these). */
    const std::vector<NodeId> &activeNodes() const { return active_; }

    /** Wall-clock seconds spent building (Figure 13b accounting). */
    double buildSeconds() const { return buildSeconds_; }

    /** Resident bytes of offsets, index and active list (Figure 13c). */
    size_t bytes() const;

  private:
    std::vector<uint64_t> offsets_ = {0}; ///< numNodes() + 1
    std::vector<uint32_t> index_;         ///< every entry, node-major
    std::vector<NodeId> active_;
    size_t lo_ = 0;
    size_t hi_ = 0;
    double buildSeconds_ = 0.0;
};

} // namespace cascade

#endif // CASCADE_CORE_DEPENDENCY_TABLE_HH
