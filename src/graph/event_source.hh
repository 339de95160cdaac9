/**
 * @file
 * EventSource — the unified data-access abstraction.
 *
 * Every consumer of event data (TemporalAdjacency, the dependency
 * tables, the batchers, TgnnModel, TrainingSession, the serve path)
 * reads through this interface instead of holding an EventSequence
 * by reference. Two implementations cover the deployment shapes:
 *
 *  - VectorEventSource: the classic fully-resident sequence (borrowed
 *    or owned). `resident()` exposes the underlying EventSequence so
 *    paths that want zero-overhead vector access can keep it.
 *  - EventLogSource: an mmap-backed chunked log (graph/eventlog.hh)
 *    for streams larger than RAM; `hintConsumed` drops pages behind a
 *    sequential training cursor so peak RSS stays bounded.
 *
 * The accessors return values/pointers that are bit-identical to the
 * in-memory path for the same logical data, which is what keeps the
 * golden-trajectory contract intact across backing stores.
 */

#ifndef CASCADE_GRAPH_EVENT_SOURCE_HH
#define CASCADE_GRAPH_EVENT_SOURCE_HH

#include <memory>
#include <string>

#include "graph/event.hh"
#include "graph/eventlog.hh"

namespace cascade {

/** Read-only random access to a chronological event stream. */
class EventSource
{
  public:
    virtual ~EventSource() = default;

    virtual size_t numNodes() const = 0;
    virtual size_t size() const = 0;
    virtual size_t featDim() const = 0;
    virtual Event event(EventIdx i) const = 0;
    /** Feature row of event i (featDim floats); nullptr iff
     *  featDim() == 0. Valid until the source is destroyed. */
    virtual const float *featureRow(EventIdx i) const = 0;

    /** The fully-resident sequence backing this source, if any. */
    virtual const EventSequence *resident() const { return nullptr; }

    /**
     * Advisory: a sequential consumer has finished events
     * [0, cursor). Out-of-core sources release the pages behind the
     * cursor; in-memory sources ignore it. Thread-safe and const —
     * the hint never changes observable data.
     */
    virtual void hintConsumed(EventIdx cursor) const { (void)cursor; }

    /** Copy events [begin, end) into a resident sequence. */
    EventSequence materialize(size_t begin, size_t end) const;
};

/** EventSource over an EventSequence, borrowed or owned. */
class VectorEventSource final : public EventSource
{
  public:
    /** Borrow `seq` — it must outlive the source. */
    explicit VectorEventSource(const EventSequence &seq) : seq_(&seq) {}
    /** Take ownership of `seq`. */
    explicit VectorEventSource(EventSequence &&seq)
        : owned_(std::make_unique<EventSequence>(std::move(seq))),
          seq_(owned_.get())
    {}

    size_t numNodes() const override { return seq_->numNodes; }
    size_t size() const override { return seq_->size(); }
    size_t featDim() const override { return seq_->featDim(); }
    Event event(EventIdx i) const override
    {
        return seq_->events[static_cast<size_t>(i)];
    }
    const float *featureRow(EventIdx i) const override
    {
        return seq_->featDim() == 0
            ? nullptr
            : seq_->features.row(static_cast<size_t>(i));
    }
    const EventSequence *resident() const override { return seq_; }

  private:
    std::unique_ptr<EventSequence> owned_;
    const EventSequence *seq_;
};

/** EventSource over an mmap'd chunked event log. */
class EventLogSource final : public EventSource
{
  public:
    explicit EventLogSource(EventLog &&log) : log_(std::move(log)) {}

    size_t numNodes() const override { return log_.numNodes(); }
    size_t size() const override { return log_.size(); }
    size_t featDim() const override { return log_.featDim(); }
    Event event(EventIdx i) const override { return log_.event(i); }
    const float *featureRow(EventIdx i) const override
    {
        return log_.featureRow(i);
    }
    void hintConsumed(EventIdx cursor) const override
    {
        log_.dropBehind(cursor);
    }

    const EventLog &log() const { return log_; }

  private:
    EventLog log_;
};

} // namespace cascade

#endif // CASCADE_GRAPH_EVENT_SOURCE_HH
