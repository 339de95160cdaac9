#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

namespace perfbench {

namespace {

/** Rounding slack when comparing span ends, microseconds. */
constexpr double kSlackMicros = 1e-3;

} // namespace

double
nowSeconds()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch())
        .count();
}

SpanTree::SpanTree(const Recorder &rec) : spans_(rec.events())
{
    // The recorder stores a span when it closes; order by start, a
    // parent before a child that started in the same instant.
    std::stable_sort(spans_.begin(), spans_.end(),
                     [](const auto &a, const auto &b) {
                         return a.tsMicros != b.tsMicros
                                    ? a.tsMicros < b.tsMicros
                                    : a.depth < b.depth;
                     });
    if (rec.droppedEvents() > 0)
        error_ = std::to_string(rec.droppedEvents()) + " spans dropped";
    std::vector<int> open; // open[d]: the latest span at depth d
    parent_.reserve(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        size_t d = static_cast<size_t>(spans_[i].depth);
        if (d > open.size()) {
            if (error_.empty())
                error_ = spans_[i].name + " has no enclosing span";
            d = open.size();
        }
        open.resize(d);
        parent_.push_back(d ? open[d - 1] : -1);
        open.push_back(static_cast<int>(i));
    }
}

double
SpanTree::total(const std::string &name) const
{
    return sum(durations(name));
}

std::vector<double>
SpanTree::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const auto &s : spans_)
        if (s.name == name)
            out.push_back(s.durMicros * 1e-6);
    return out;
}

bool
SpanTree::wellFormed(std::string *why) const
{
    if (!error_.empty()) {
        *why = error_;
        return false;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (parent_[i] < 0)
            continue;
        const auto &s = spans_[i];
        const auto &p = spans_[static_cast<size_t>(parent_[i])];
        if (s.tsMicros < p.tsMicros ||
            s.tsMicros + s.durMicros >
                p.tsMicros + p.durMicros + kSlackMicros) {
            *why = s.name + " outside its parent " + p.name;
            return false;
        }
    }
    return true;
}

double
SpanTree::coverage() const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (size_t i = 0; i < spans_.size(); ++i)
        if (parent_[i] >= 0)
            child[static_cast<size_t>(parent_[i])] += spans_[i].durMicros;
    std::map<std::string, std::pair<double, double>> per_name;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (child[i] <= 0.0)
            continue;
        auto &acc = per_name[spans_[i].name];
        acc.first += child[i];
        acc.second += spans_[i].durMicros;
    }
    double cov = 1.0;
    for (const auto &kv : per_name)
        if (kv.second.second > 0.0)
            cov = std::min(cov, kv.second.first / kv.second.second);
    return cov;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
sum(const std::vector<double> &v)
{
    double t = 0.0;
    for (double x : v)
        t += x;
    return t;
}

} // namespace perfbench
