/**
 * @file
 * Reading the benchmark's spans, and small statistics helpers.
 *
 * The benchmark records its spans with obs::TraceRecorder around its
 * own calls into the library (no span lives inside the program). The
 * recorder keeps each span's start, duration and nesting depth. The
 * benchmark's loop is single-threaded, so a span's parent is the
 * latest span one level up that started before it; SpanTree rebuilds
 * the tree from that.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <string>
#include <vector>

#include "obs/trace.hh"

namespace perfbench {

using Recorder = cascade::obs::TraceRecorder;

/** Monotonic seconds (steady_clock). */
double nowSeconds();

/** A span around a call; a null recorder records nothing. */
inline Recorder::Span
openSpan(Recorder *rec, const char *name)
{
    return rec ? rec->span(name) : Recorder::Span();
}

/** A recorder's spans in start order, each with its parent. */
class SpanTree
{
  public:
    explicit SpanTree(const Recorder &rec);

    size_t size() const { return spans_.size(); }

    /** Summed seconds of every span called `name`. */
    double total(const std::string &name) const;
    /** Durations (seconds) of every span called `name`, in order. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * No span dropped, every span under an open parent, and every
     * child inside its parent's interval. On failure `why` names the
     * first offender.
     */
    bool wellFormed(std::string *why) const;

    /**
     * Child time over parent time per parent name (direct children
     * only), minimised over the names that have children.
     */
    double coverage() const;

  private:
    std::vector<cascade::obs::TraceEvent> spans_;
    std::vector<int> parent_; ///< -1 for a top-level span
    std::string error_;
};

/** Nearest-rank quantile, q in [0, 1]; 0 for an empty sample. */
double quantile(std::vector<double> v, double q);

double sum(const std::vector<double> &v);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
