/**
 * @file
 * Topology-Aware Graph Diffuser (§4.2).
 *
 * Owns the dependency table(s) and answers the runtime question "how
 * far may the next batch extend?" via Algorithm 3: each non-stable
 * node tolerates at most Max_r relevant events before it must be
 * refreshed; the batch boundary is the minimum last-tolerable event
 * across nodes (inclusive).
 *
 * The lookup is incremental. Node n's key at batch start st is its
 * (Max_r+1)-th relevant event at or after st,
 * D[n][lower_bound(D[n], st) + Max_r]; keys only grow as st advances.
 * A bucket queue with one bucket per event of the chunk holds every
 * keyed node under a lower bound of its key, so a lookup walks the
 * buckets up from st, re-keys only the nodes it meets and stops at
 * the first non-stable node whose key is exact. The queue is a
 * function of (st, Max_r, chunk) alone; any other st or Max_r re-keys
 * every active node once, so nothing about it is checkpointed.
 *
 * With a nonzero chunk size the event range is split into consecutive
 * chunks whose tables are built independently (dependencies truncated
 * at chunk boundaries) and optionally *pipelined*: chunk k+1's table
 * builds on a worker thread while chunk k trains, so only the stall
 * time is charged as preprocessing (§4.2, evaluated as Cascade_EX in
 * §5.5). The build is deterministic, so nothing retries it: a
 * prefetch that throws rethrows at the lookup that needs its table.
 */

#ifndef CASCADE_CORE_TG_DIFFUSER_HH
#define CASCADE_CORE_TG_DIFFUSER_HH

#include <memory>
#include <vector>

#include "core/dependency_table.hh"
#include "graph/adjacency.hh"
#include "graph/event.hh"
#include "util/queue.hh"

namespace cascade {

namespace obs {
class MetricsRegistry;
class Histogram;
class Gauge;
}

/** Adaptive batch-boundary search over the dependency table. */
class TgDiffuser
{
  public:
    struct Options
    {
        /** Events per chunk; 0 = one table over everything. */
        size_t chunkSize = 0;
        /** Overlap next-chunk table building with training. */
        bool pipeline = true;
    };

    /**
     * @param src        training events (tables cover [0, train_end));
     *                   must outlive the diffuser
     * @param adj        adjacency over src
     * @param train_end  number of training events
     */
    TgDiffuser(const EventSource &src, const TemporalAdjacency &adj,
               size_t train_end, Options opts);

    /** Construct over a resident sequence (borrowed, not copied). */
    TgDiffuser(const EventSequence &seq, const TemporalAdjacency &adj,
               size_t train_end, Options opts)
        : TgDiffuser(std::make_unique<VectorEventSource>(seq), adj,
                     train_end, opts)
    {}

    ~TgDiffuser();

    TgDiffuser(const TgDiffuser &) = delete;
    TgDiffuser &operator=(const TgDiffuser &) = delete;

    /** Set Max_r (driven by the Adaptive Batch Sensor). */
    void setMaxRevisit(size_t maxr);
    size_t maxRevisit() const { return maxr_; }

    /**
     * Algorithm 3: exclusive end of the batch starting at st. Any st
     * is accepted — the next one, an earlier one (rollback), one in
     * another chunk — and the flags may change freely between calls.
     * @param stable per-node stable flags (empty = none stable)
     * @post st < result <= trainEnd, result <= the end of st's chunk
     */
    size_t lastTolerableEnd(size_t st,
                            const std::vector<uint8_t> &stable);

    /**
     * Forget the batch position (new epoch, restored state): the next
     * lookup re-keys every active node at its st.
     */
    void resetEpoch();

    /** Table building seconds; pipelined builds charge only stalls. */
    double preprocessSeconds() const { return prepSeconds_; }

    /** Accumulated Algorithm 3 lookup seconds. */
    double lookupSeconds() const { return lookupSeconds_; }

    /**
     * Publish lookup/preprocess measurements as named instruments
     * (`stage.lookup.seconds` histogram, `diffuser.*` gauges). The
     * accessors above remain views over the same numbers.
     */
    void bindMetrics(obs::MetricsRegistry &registry);

    /** Drop the bound instruments (registry about to go away). */
    void unbindMetrics();

    /** Dependency-table bytes across built chunks (Figure 13c). */
    size_t tableBytes() const;

    size_t numChunks() const { return chunkBounds_.size(); }

    /** Already-built table for chunk c, or nullptr. */
    const DependencyTable *
    table(size_t c) const
    {
        return c < tables_.size() ? tables_[c].get() : nullptr;
    }

  private:
    /**
     * Table for chunk c, building or waiting as needed. A failed
     * build — thrown by the prefetch worker (surfacing here through
     * the AsyncCell) or by a synchronous build — caches no table,
     * leaves no pending state and propagates to the caller (the
     * session's boundary stage).
     */
    const DependencyTable &ensureChunk(size_t c);

    /** Enter chunk c: size its queue, prefetch c+1. */
    void enterChunk(size_t c);

    /** Node n's key at st as an offset into the chunk, or none. */
    uint32_t keyAt(const DependencyTable &table, uint32_t n,
                   size_t st) const;

    /** Queue node n in bucket `key` (a node without one is dropped). */
    void enqueue(uint32_t n, uint32_t key);

    /** Adapter-owning delegate for the EventSequence convenience
     *  constructor: the wrapper must live as long as src_. */
    TgDiffuser(std::unique_ptr<VectorEventSource> owned,
               const TemporalAdjacency &adj, size_t train_end,
               Options opts)
        : TgDiffuser(*owned, adj, train_end, opts)
    {
        ownedSrc_ = std::move(owned);
    }

    std::unique_ptr<VectorEventSource> ownedSrc_;
    const EventSource &src_;
    const TemporalAdjacency &adj_;
    size_t trainEnd_;
    Options opts_;
    size_t maxr_ = 8;

    /** chunkBounds_[c] = {lo, hi} of chunk c. */
    std::vector<std::pair<size_t, size_t>> chunkBounds_;
    std::vector<std::unique_ptr<DependencyTable>> tables_;
    /** One-shot prefetch slot (util/queue.hh): chunk k+1's table
     *  builds on its worker while chunk k trains. */
    AsyncCell<std::unique_ptr<DependencyTable>> pending_;
    size_t pendingChunk_ = SIZE_MAX;

    size_t curChunk_ = SIZE_MAX;
    /** The st the queue is keyed at; SIZE_MAX = not keyed. */
    size_t cursor_ = SIZE_MAX;
    /** First node of each bucket (event offset in the chunk). */
    std::vector<uint32_t> head_;
    /** Next node in the same bucket, per node. */
    std::vector<uint32_t> next_;
    /** Lookup scratch: nodes to re-key at the batch end. */
    std::vector<uint32_t> passed_;

    double prepSeconds_ = 0.0;
    double lookupSeconds_ = 0.0;

    /** Bound instruments (null until bindMetrics). */
    obs::Histogram *lookupHist_ = nullptr;
    obs::Gauge *prepGauge_ = nullptr;
    obs::Gauge *tableBytesGauge_ = nullptr;
};

} // namespace cascade

#endif // CASCADE_CORE_TG_DIFFUSER_HH
