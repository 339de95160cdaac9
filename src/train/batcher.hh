/**
 * @file
 * Batch-formation policy interface.
 *
 * A Batcher turns the training event sequence into consecutive index
 * ranges. The baselines (TGL's fixed batching, NeutronStream's
 * dependency windows, ETC's information-loss bound) and Cascade's
 * adaptive TG-Diffuser/SG-Filter/ABS pipeline all implement this
 * interface, so the Trainer and every benchmark treat them uniformly.
 */

#ifndef CASCADE_TRAIN_BATCHER_HH
#define CASCADE_TRAIN_BATCHER_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "graph/event.hh"
#include "graph/event_source.hh"

namespace cascade {

class ByteWriter;
class ByteReader;

/** Runtime feedback a policy may use (loss plateau, memory drift). */
struct BatchFeedback
{
    size_t batchIndex = 0;
    size_t st = 0;
    size_t ed = 0;
    double loss = 0.0;
    /** Nodes whose memory was rewritten this batch (may be null). */
    const std::vector<NodeId> *updatedNodes = nullptr;
    /** cos(s_before, s_after) per updated node (may be null). */
    const std::vector<double> *memCosine = nullptr;
};

/** Batch-formation policy over a training sequence of N events. */
class Batcher
{
  public:
    virtual ~Batcher() = default;

    /** Policy name for reports. */
    virtual std::string name() const = 0;

    /** Reset per-epoch state. */
    virtual void reset() = 0;

    /**
     * End index (exclusive) of the batch starting at st.
     * @pre st < numEvents
     * @post st < result <= numEvents (progress is guaranteed)
     */
    virtual size_t next(size_t st) = 0;

    /** Runtime feedback hook; default ignores it. */
    virtual void onBatchDone(const BatchFeedback &fb) { (void)fb; }

    /** One-time preprocessing cost in seconds (Figure 13b/14c). */
    virtual double preprocessSeconds() const { return 0.0; }

    /** Resident bytes of policy state (Figure 13c). */
    virtual size_t stateBytes() const { return 0; }

    /** Fraction of stable memory updates this epoch (Figure 5). */
    virtual double stableUpdateRatio() const { return 0.0; }

    /**
     * Serialize mutable policy state for a training checkpoint.
     * Stateless policies (fixed batching, window policies whose
     * boundaries depend only on the cursor) write nothing.
     */
    virtual bool saveState(ByteWriter &w) const
    {
        (void)w;
        return true;
    }

    /**
     * Restore state written by saveState.
     * @return false on mismatch/corruption (policy untouched)
     */
    virtual bool loadState(ByteReader &r)
    {
        (void)r;
        return true;
    }

    /**
     * Numeric-guard rollback notification: the trainer rewound to the
     * last good checkpoint after divergence. Adaptive policies should
     * retry with more conservative batches.
     */
    virtual void onNumericRollback() {}
};

/** TGL: fixed-size batches (the paper's baseline, §5.1). */
class FixedBatcher : public Batcher
{
  public:
    FixedBatcher(size_t num_events, size_t batch_size);

    std::string name() const override { return "TGL"; }
    void reset() override {}
    size_t next(size_t st) override;

  private:
    size_t numEvents_;
    size_t batchSize_;
};

/**
 * NeutronStream-style dependency-window batching (§5.6): within a
 * sliding window, only a prefix of mutually node-disjoint events may
 * run in parallel; the first conflicting event ends the batch. The
 * per-window dependency-graph construction is really performed (and
 * timed) to reproduce the overhead the paper measures.
 */
class NeutronStreamBatcher : public Batcher
{
  public:
    /**
     * @param src       training stream (must outlive the batcher)
     * @param window    sliding-window length (the base batch size)
     * @param train_end events to batch over; 0 = the whole stream
     */
    NeutronStreamBatcher(const EventSource &src, size_t window,
                         size_t train_end = 0);

    /** Construct over a resident sequence (borrowed, not copied). */
    NeutronStreamBatcher(const EventSequence &seq, size_t window,
                         size_t train_end = 0)
        : NeutronStreamBatcher(std::make_unique<VectorEventSource>(seq),
                               window, train_end)
    {}

    std::string name() const override { return "NeutronStream"; }
    void reset() override {}
    size_t next(size_t st) override;
    double preprocessSeconds() const override { return prepSeconds_; }

  private:
    NeutronStreamBatcher(std::unique_ptr<VectorEventSource> owned,
                         size_t window, size_t train_end)
        : NeutronStreamBatcher(*owned, window, train_end)
    {
        ownedSrc_ = std::move(owned);
    }

    std::unique_ptr<VectorEventSource> ownedSrc_;
    const EventSource &src_;
    size_t window_;
    size_t trainEnd_;
    double prepSeconds_ = 0.0;
};

/**
 * ETC-style information-loss-bounded batching (§5.6): a batch grows
 * while its total expected redundant node updates stay under a
 * threshold profiled from the preset base batch size.
 */
class EtcBatcher : public Batcher
{
  public:
    /**
     * @param src        training stream (must outlive the batcher)
     * @param base_batch preset small batch size to profile
     * @param train_end  events to batch over; 0 = the whole stream
     */
    EtcBatcher(const EventSource &src, size_t base_batch,
               size_t train_end = 0);

    /** Construct over a resident sequence (borrowed, not copied). */
    EtcBatcher(const EventSequence &seq, size_t base_batch,
               size_t train_end = 0)
        : EtcBatcher(std::make_unique<VectorEventSource>(seq),
                     base_batch, train_end)
    {}

    std::string name() const override { return "ETC"; }
    void reset() override {}
    size_t next(size_t st) override;
    double preprocessSeconds() const override { return prepSeconds_; }

    /** Profiled information-loss bound (testing hook). */
    size_t threshold() const { return threshold_; }

  private:
    EtcBatcher(std::unique_ptr<VectorEventSource> owned,
               size_t base_batch, size_t train_end)
        : EtcBatcher(*owned, base_batch, train_end)
    {
        ownedSrc_ = std::move(owned);
    }

    /** Redundant-update count of [st, ed): sum of (n_count - 1). */
    static size_t informationLoss(const EventSource &src, size_t st,
                                  size_t ed);

    std::unique_ptr<VectorEventSource> ownedSrc_;
    const EventSource &src_;
    size_t baseBatch_;
    size_t trainEnd_;
    size_t threshold_ = 0;
    double prepSeconds_ = 0.0;
};

} // namespace cascade

#endif // CASCADE_TRAIN_BATCHER_HH
