/**
 * @file
 * Structural tracing: RAII spans collected into a chrome://tracing-
 * compatible JSON document (the Trace Event Format's "X" complete
 * events).
 *
 * The TrainingSession opens one span per stage of every batch (epoch >
 * batch > boundary/model/feedback/guard/checkpoint), so a dumped trace
 * (`cascade_train --trace-out=run.json`) shows the per-stage timeline
 * that Figure 13b summarizes.
 *
 * Spans nest per thread: each thread keeps its own depth counter and
 * events carry the thread's stable tid, so work on other threads —
 * the session's background `checkpoint-write`, Cascade_EX's chunk
 * prefetch — renders as separate tracks.
 */

#ifndef CASCADE_OBS_TRACE_HH
#define CASCADE_OBS_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/thread_annotations.hh"

namespace cascade {
namespace obs {

/** One finished span (Trace Event Format "X" event). */
struct TraceEvent
{
    std::string name;
    std::string category;
    double tsMicros = 0.0;  ///< start, relative to recorder creation
    double durMicros = 0.0; ///< duration
    int tid = 0;            ///< recorder-assigned stable thread id
    int depth = 0;          ///< nesting level at open (0 = top)
};

/**
 * Collects spans and serializes them to the Trace Event Format JSON
 * that chrome://tracing / Perfetto load directly.
 */
class TraceRecorder
{
  public:
    /** @param max_events cap on retained events (excess is counted) */
    explicit TraceRecorder(size_t max_events = 1 << 20);
    ~TraceRecorder();

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /** RAII span: records on destruction (or an explicit end()). */
    class Span
    {
      public:
        Span() = default;
        Span(Span &&other) noexcept;
        Span &operator=(Span &&other) noexcept;
        ~Span() { end(); }

        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        /** Close the span now; further calls are no-ops. */
        void end();

      private:
        friend class TraceRecorder;
        TraceRecorder *rec_ = nullptr;
        std::string name_;
        std::string category_;
        double startMicros_ = 0.0;
        int depth_ = 0;
    };

    /** Open a span; it records itself when destroyed/ended. */
    Span span(std::string name, std::string category = "stage");

    /** Microseconds since recorder creation (span timestamps). */
    double nowMicros() const;

    /** Copy of the recorded events (tests, custom exporters). */
    std::vector<TraceEvent> events() const;

    size_t eventCount() const;

    /** Events discarded after the retention cap was hit. */
    size_t droppedEvents() const;

    /** Deepest nesting level recorded so far (0 = only top spans). */
    int maxDepth() const;

    /** {"traceEvents":[…],"displayTimeUnit":"ms"} document. */
    std::string toJson() const;

    /** Atomically write toJson() to `path`. */
    bool writeJsonFile(const std::string &path) const;

  private:
    void record(TraceEvent ev);
    int threadTid();

    using Clock = std::chrono::steady_clock;
    Clock::time_point epoch_;
    size_t maxEvents_;

    mutable AnnotatedMutex m_;
    std::vector<TraceEvent> events_ CASCADE_GUARDED_BY(m_);
    size_t dropped_ CASCADE_GUARDED_BY(m_) = 0;
    int maxDepth_ CASCADE_GUARDED_BY(m_) = 0;
    int nextTid_ CASCADE_GUARDED_BY(m_) = 0;
};

} // namespace obs
} // namespace cascade

#endif // CASCADE_OBS_TRACE_HH
