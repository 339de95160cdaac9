/**
 * @file
 * Online query engine over a trained TGNN (DESIGN.md §14).
 *
 * Serving splits one trained model into two roles with different
 * concurrency needs:
 *
 *   writer (one thread)    applies live events to the authoritative
 *                          memory/mailbox via TgnnModel::advanceState
 *                          — a NeutronStream-style sliding window over
 *                          the event stream — and publishes immutable
 *                          ServeSnapshots after each window
 *   readers (many threads) answer embedding and link-prediction
 *                          queries through the engine's model on the
 *                          newest snapshot's state, which each query
 *                          pins; no reader holds a model of its own
 *
 * Publication is RCU-style: a snapshot is an immutable deep copy of
 * the memory/mailbox behind a shared_ptr swap, so readers never block
 * the writer and never observe a half-applied window. A reader's
 * answers are bit-identical to offline embedNodes/scoreLinks calls on
 * a model holding the same snapshot state — the serve path adds no
 * approximation (guarded by tests/test_serve.cc and the exact_match
 * gate in BENCH_serve.json). The query path reads only parameters and
 * the pinned snapshot, never the live memory/mailbox the writer
 * advances.
 *
 * Query latency lands in the engine's MetricsRegistry
 * ("serve.embed.seconds" / "serve.score.seconds" histograms, the
 * obs/ layer the training session already uses), so p50/p99 come from
 * the same instrument stack as training-stage timings.
 */

#ifndef CASCADE_SERVE_ENGINE_HH
#define CASCADE_SERVE_ENGINE_HH

#include <memory>

#include "graph/adjacency.hh"
#include "graph/event_source.hh"
#include "obs/metrics.hh"
#include "tgnn/model.hh"
#include "util/determinism.hh"
#include "util/thread_annotations.hh"

namespace cascade {

/**
 * One immutable published state: everything a reader needs to answer
 * queries as of `appliedEvents`. Never mutated after publication —
 * readers share it by shared_ptr.
 */
struct ServeSnapshot
{
    /** Monotonic publication ordinal (1 = initial state). */
    uint64_t version = 0;
    /** Events [0, appliedEvents) are reflected in `state`. */
    size_t appliedEvents = 0;
    /** Timestamp of the newest applied event (0 before the first). */
    double lastTs = 0.0;
    /** Deep copy of node memory + mailbox at publication. */
    TgnnModel::State state;
};

/**
 * Single-writer / many-reader serving core. The engine owns snapshot
 * publication; ServeReader instances (one per reader thread) own the
 * query path. All references must outlive the engine.
 *
 * Thread contract: applyEvents() and publish() may only be called
 * from one writer thread. snapshot() and the accessors are safe from
 * any thread. The wrapped model's parameters must not change while
 * the engine is live (serving draws no optimizer step). Readers run
 * the model's const query path on pinned snapshots while the writer
 * advances the model's own memory/mailbox; the two share only the
 * parameters, which neither writes.
 */
class ServeEngine
{
  public:
    /**
     * Wrap a model whose memory/mailbox already reflect
     * data[0, applied_events) — e.g. after offline training or an
     * advanceState replay. Publishes the initial snapshot (version 1).
     */
    ServeEngine(TgnnModel &model, const EventSource &data,
                const TemporalAdjacency &adj, size_t applied_events,
                obs::MetricsRegistry *metrics = nullptr);

    ServeEngine(const ServeEngine &) = delete;
    ServeEngine &operator=(const ServeEngine &) = delete;

    /** The newest published snapshot (never null). Any thread. */
    std::shared_ptr<const ServeSnapshot> snapshot() const;

    /** Events applied so far (as of the newest snapshot). */
    size_t appliedEvents() const { return snapshot()->appliedEvents; }

    /** Events available in the source but not yet applied. */
    size_t
    pendingEvents() const
    {
        return data_.size() - appliedEvents();
    }

    /**
     * Writer only: advance the authoritative state over the next
     * window of up to `max_events` pending events in batches of
     * `batch` (the sliding-window grain), then publish one new
     * snapshot. Memory/mailbox evolution is bit-identical to a
     * training run's step() sequence at the same batch boundaries
     * (TgnnModel::advanceState).
     * @return events applied (0 when the stream is drained)
     */
    CASCADE_TRAJECTORY
    size_t applyEvents(size_t max_events, size_t batch = 128);

    const EventSource &data() const { return data_; }
    const TemporalAdjacency &adj() const { return adj_; }
    const TgnnModel &model() const { return model_; }
    obs::MetricsRegistry &metrics() { return *metrics_; }

  private:
    /** Writer only: deep-copy the model state into a new snapshot. */
    void publish(size_t applied_events, double last_ts);

    TgnnModel &model_;
    const EventSource &data_;
    const TemporalAdjacency &adj_;

    std::unique_ptr<obs::MetricsRegistry> ownedMetrics_;
    obs::MetricsRegistry *metrics_;

    mutable AnnotatedMutex snapMutex_;
    /** RCU head: swapped whole under snapMutex_, read under it too
     *  (shared_ptr copy is cheap; the payload itself is immutable). */
    std::shared_ptr<const ServeSnapshot> snap_
        CASCADE_GUARDED_BY(snapMutex_);
};

/**
 * Per-thread query endpoint. Each query pins the newest published
 * snapshot and answers through the engine's model on that snapshot's
 * state (TgnnModel::embedNodes/scoreLinks read parameters and the
 * given state only), so it sees one consistent state — never a
 * half-applied window — and copies nothing.
 *
 * Not thread-safe; create one per reader thread.
 */
class ServeReader
{
  public:
    explicit ServeReader(ServeEngine &engine) : engine_(engine) {}

    /**
     * Embeddings for `nodes` at the pinned snapshot's lastTs, seeing
     * exactly the applied events. Bit-identical to
     * model.embedNodes(...) on a model holding the snapshot state.
     * @return |nodes| x memoryDim
     */
    Tensor embed(const std::vector<NodeId> &nodes);

    /** Link-prediction logits for aligned (srcs[i], dsts[i]) pairs
     *  at the pinned snapshot. @return |srcs| x 1 */
    Tensor scoreLinks(const std::vector<NodeId> &srcs,
                      const std::vector<NodeId> &dsts);

    /** Version of the snapshot the last query answered against
     *  (0 before the first query). */
    uint64_t syncedVersion() const { return snap_ ? snap_->version : 0; }

    /** The snapshot the last query answered against (null before the
     *  first query). */
    std::shared_ptr<const ServeSnapshot> current() const
    {
        return snap_;
    }

  private:
    ServeEngine &engine_;
    std::shared_ptr<const ServeSnapshot> snap_;
};

} // namespace cascade

#endif // CASCADE_SERVE_ENGINE_HH
