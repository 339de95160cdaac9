#include "obs/metrics.hh"

#include <algorithm>
#include <cstdio>

namespace cascade {
namespace obs {

const std::vector<double> &
Histogram::bucketBounds()
{
    static const std::vector<double> bounds = {
        1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
        1e-1, 1e0,  1e1,  1e2,  1e3,
    };
    return bounds;
}

void
Histogram::record(double v)
{
    const auto &bounds = bucketBounds();
    size_t b = 0;
    while (b < bounds.size() && v > bounds[b])
        ++b;
    LockGuard lock(m_);
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    ++buckets_[b];
}

uint64_t
Histogram::count() const
{
    LockGuard lock(m_);
    return count_;
}

double
Histogram::sum() const
{
    LockGuard lock(m_);
    return sum_;
}

double
Histogram::min() const
{
    LockGuard lock(m_);
    return min_;
}

double
Histogram::max() const
{
    LockGuard lock(m_);
    return max_;
}

double
Histogram::mean() const
{
    LockGuard lock(m_);
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

std::vector<uint64_t>
Histogram::buckets() const
{
    LockGuard lock(m_);
    return std::vector<uint64_t>(buckets_, buckets_ + kBuckets);
}

void
Histogram::reset()
{
    LockGuard lock(m_);
    count_ = 0;
    sum_ = min_ = max_ = 0.0;
    std::fill(buckets_, buckets_ + kBuckets, 0);
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    LockGuard lock(m_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    LockGuard lock(m_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    LockGuard lock(m_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

const Counter *
MetricsRegistry::findCounter(const std::string &name) const
{
    LockGuard lock(m_);
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge *
MetricsRegistry::findGauge(const std::string &name) const
{
    LockGuard lock(m_);
    auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &name) const
{
    LockGuard lock(m_);
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : it->second.get();
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot s;
    LockGuard lock(m_);
    for (const auto &[name, c] : counters_)
        s.counters.emplace_back(name, c->value());
    for (const auto &[name, g] : gauges_)
        s.gauges.emplace_back(name, g->value());
    for (const auto &[name, h] : histograms_) {
        MetricsSnapshot::HistogramStats hs;
        hs.name = name;
        hs.count = h->count();
        hs.sum = h->sum();
        hs.min = h->min();
        hs.max = h->max();
        hs.buckets = h->buckets();
        s.histograms.push_back(std::move(hs));
    }
    return s;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

void
appendNumber(std::string &out, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out += buf;
}

} // namespace

std::string
MetricsRegistry::toJson() const
{
    const MetricsSnapshot s = snapshot();
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, v] : s.counters) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + jsonEscape(name) + "\": ";
        out += std::to_string(v);
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"gauges\": {";
    first = true;
    for (const auto &[name, v] : s.gauges) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + jsonEscape(name) + "\": ";
        appendNumber(out, v);
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"histograms\": {";
    first = true;
    const auto &bounds = Histogram::bucketBounds();
    for (const auto &h : s.histograms) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + jsonEscape(h.name) + "\": {\"count\": ";
        out += std::to_string(h.count);
        out += ", \"sum\": ";
        appendNumber(out, h.sum);
        out += ", \"min\": ";
        appendNumber(out, h.min);
        out += ", \"max\": ";
        appendNumber(out, h.max);
        out += ", \"buckets\": [";
        for (size_t i = 0; i < h.buckets.size(); ++i) {
            if (i)
                out += ", ";
            out += "{\"le\": ";
            if (i < bounds.size())
                appendNumber(out, bounds[i]);
            else
                out += "\"inf\"";
            out += ", \"count\": " + std::to_string(h.buckets[i]) + "}";
        }
        out += "]}";
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

bool
JsonFileSink::write(const MetricsRegistry &registry)
{
    const std::string json = registry.toJson();
    const std::string tmp = path_ + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (std::fclose(f) != 0 || !ok) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace obs
} // namespace cascade
