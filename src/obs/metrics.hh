/**
 * @file
 * Unified metrics layer: named counters, gauges and histograms behind
 * one registry.
 *
 * A TrainingSession owns one registry and is its only writer of run
 * facts: it records stage seconds and batch counts as they happen and
 * publishes the components' end-of-run state (guard trips, device
 * utilization, batcher and model sizes, kernel counters) once after
 * the eval stage. The components keep their own tallies and accessors
 * and hold no instruments. The session reads its TrainReport back out
 * of the registry, one instrument per field; the CLI dumps it with
 * --metrics-out, and the benchmarks read per-stage histograms rather
 * than re-deriving breakdowns from summed report fields. Each fact
 * has one name; an instrument that exists only once its event
 * happened (a retry, a worker death) reads as zero when absent.
 *
 * Threading model: instrument creation takes the registry mutex;
 * recording on an instrument is lock-free (counters/gauges) or takes a
 * per-instrument mutex (histograms). Instrument references stay valid
 * for the registry's lifetime.
 */

#ifndef CASCADE_OBS_METRICS_HH
#define CASCADE_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/thread_annotations.hh"

namespace cascade {
namespace obs {

/** Monotonically increasing event count. */
class Counter
{
  public:
    void add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    uint64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
};

/** Last-write-wins scalar (utilization, state bytes). */
class Gauge
{
  public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    double value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/**
 * Sample distribution with count/sum/min/max and log10-spaced buckets.
 *
 * The bucket bounds (1e-7 s … 1e3 s) cover everything from a single
 * lookup to a whole training run, so one layout serves every stage
 * histogram. sum() is exact (not bucketed): per-stage seconds are
 * reconciled against wall time, so the total must not quantize.
 */
class Histogram
{
  public:
    /** Upper bounds of the finite buckets; one overflow bucket after. */
    static const std::vector<double> &bucketBounds();
    static constexpr size_t kBuckets = 11 + 1; ///< 1e-7…1e3 + overflow

    void record(double v);

    uint64_t count() const;
    double sum() const;
    double min() const; ///< 0 when empty
    double max() const; ///< 0 when empty
    double mean() const;

    /** Bucket occupancy, parallel to bucketBounds() + overflow last. */
    std::vector<uint64_t> buckets() const;

    void reset();

  private:
    mutable AnnotatedMutex m_;
    uint64_t count_ CASCADE_GUARDED_BY(m_) = 0;
    double sum_ CASCADE_GUARDED_BY(m_) = 0.0;
    double min_ CASCADE_GUARDED_BY(m_) = 0.0;
    double max_ CASCADE_GUARDED_BY(m_) = 0.0;
    uint64_t buckets_[kBuckets] CASCADE_GUARDED_BY(m_) = {0};
};

/** Point-in-time copy of every instrument (serialization input). */
struct MetricsSnapshot
{
    struct HistogramStats
    {
        std::string name;
        uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
        std::vector<uint64_t> buckets;
    };
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistogramStats> histograms;
};

/**
 * Named instrument directory. Lookups create on first use, so call
 * sites never need registration boilerplate; repeated lookups return
 * the same instrument.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Read-only lookup; nullptr when the instrument does not exist. */
    const Counter *findCounter(const std::string &name) const;
    const Gauge *findGauge(const std::string &name) const;
    const Histogram *findHistogram(const std::string &name) const;

    /** Sorted copy of every instrument. */
    MetricsSnapshot snapshot() const;

    /** JSON object {"counters":{…},"gauges":{…},"histograms":{…}}. */
    std::string toJson() const;

    /** Human-readable `name value` lines, one instrument per line. */
    std::string toText() const;

  private:
    /** Guards the instrument directories only. The instruments
     *  themselves are internally synchronized (atomics / their own
     *  lock), which is why handing out references is sound: node-based
     *  maps never relocate the pointees. */
    mutable AnnotatedMutex m_;
    std::map<std::string, std::unique_ptr<Counter>> counters_
        CASCADE_GUARDED_BY(m_);
    std::map<std::string, std::unique_ptr<Gauge>> gauges_
        CASCADE_GUARDED_BY(m_);
    std::map<std::string, std::unique_ptr<Histogram>> histograms_
        CASCADE_GUARDED_BY(m_);
};

/** Pluggable metrics exporter (text console, JSON file, …). */
class MetricsSink
{
  public:
    virtual ~MetricsSink() = default;
    /** @return false when the sink could not persist the snapshot */
    virtual bool write(const MetricsRegistry &registry) = 0;
};

/** Writes toText() to a FILE* (default stderr); never owns it. */
class TextSink : public MetricsSink
{
  public:
    explicit TextSink(std::FILE *out = nullptr) : out_(out) {}
    bool write(const MetricsRegistry &registry) override;

  private:
    std::FILE *out_;
};

/** Atomically replaces `path` with the registry's JSON document. */
class JsonFileSink : public MetricsSink
{
  public:
    explicit JsonFileSink(std::string path) : path_(std::move(path)) {}
    bool write(const MetricsRegistry &registry) override;

  private:
    std::string path_;
};

/** Escape a string for inclusion inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

} // namespace obs
} // namespace cascade

#endif // CASCADE_OBS_METRICS_HH
