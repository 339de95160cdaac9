#include "core/abs.hh"

#include <algorithm>
#include <cmath>
#include <set>

#include "obs/metrics.hh"
#include "util/binio.hh"
#include "util/logging.hh"

namespace cascade {

AdaptiveBatchSensor::AdaptiveBatchSensor(Options opts)
    : opts_(opts), rng_(opts.seed)
{
    CASCADE_CHECK(opts_.baseBatch > 0, "ABS: baseBatch must be > 0");
}

EnduranceStats
AdaptiveBatchSensor::profile(const EventSource &src,
                             const DependencyTable &table)
{
    const size_t n = std::min(src.size(), table.rangeHi());
    EnduranceStats stats;
    stats.batchCount = (n + opts_.baseBatch - 1) / opts_.baseBatch;

    // Sample batch indices without replacement (or all, if few). A
    // std::set hands them back in ascending order, so the float fold
    // below sees the same order on every platform.
    std::set<size_t> batches;
    if (stats.batchCount <= opts_.sampleBatches) {
        for (size_t i = 0; i < stats.batchCount; ++i)
            batches.insert(i);
    } else {
        while (batches.size() < opts_.sampleBatches)
            batches.insert(rng_.uniformInt(stats.batchCount));
    }

    // Table entries are offsets from the table's range start.
    const size_t base = table.rangeLo();
    auto offset = [&](size_t i) {
        return static_cast<uint32_t>(std::max(i, base) - base);
    };
    double sum = 0.0;
    double mn = 1e30, mx = 0.0;
    for (size_t b : batches) {
        const size_t st = b * opts_.baseBatch;
        const size_t ed = std::min(n, st + opts_.baseBatch);
        const uint32_t rst = offset(st);
        const uint32_t red = offset(ed);

        // Max over every event endpoint of its dependency-table
        // entries inside the batch window; a repeated node changes
        // nothing.
        auto endurance = [&](NodeId node) {
            const auto entry = table.entry(node);
            const auto lo =
                std::lower_bound(entry.begin(), entry.end(), rst);
            const auto hi =
                std::lower_bound(entry.begin(), entry.end(), red);
            return static_cast<size_t>(hi - lo);
        };
        size_t max_endurance = 0;
        for (size_t i = st; i < ed; ++i) {
            const Event ev = src.event(static_cast<EventIdx>(i));
            max_endurance = std::max(
                {max_endurance, endurance(ev.src), endurance(ev.dst)});
        }
        sum += static_cast<double>(max_endurance);
        mn = std::min(mn, static_cast<double>(max_endurance));
        mx = std::max(mx, static_cast<double>(max_endurance));
    }
    if (batches.empty()) {
        mn = mx = 1.0;
        sum = 1.0;
        batches.insert(0);
    }
    stats.mrMean = sum / batches.size();
    stats.mrMin = std::max(1.0, mn);
    stats.mrMax = std::max(stats.mrMin, mx);

    setStats(stats);
    return stats;
}

void
AdaptiveBatchSensor::setStats(const EnduranceStats &stats)
{
    stats_ = stats;
    maxr_ = clampMaxr(opts_.initFactor * stats_.mrMean);
    batchIdx_ = 0;
    bestLoss_ = 1e30;
    sinceImprovement_ = 0;
    sinceDecision_ = 0;
    publishGauges();
}

size_t
AdaptiveBatchSensor::clampMaxr(double v) const
{
    const double lo = std::max(1.0, stats_.mrMin);
    // A tightened ceiling (numeric-guard rollback) caps Max_r below
    // the profiled maximum until the end of the run.
    const double hi = std::max(lo, stats_.mrMax * ceilingScale_);
    return static_cast<size_t>(std::lround(std::clamp(v, lo, hi)));
}

void
AdaptiveBatchSensor::tightenCeiling()
{
    ceilingScale_ = std::max(0.05, ceilingScale_ * 0.5);
    maxr_ = clampMaxr(static_cast<double>(maxr_));
    publishGauges();
}

void
AdaptiveBatchSensor::bindMetrics(obs::MetricsRegistry &registry)
{
    decaysCtr_ = &registry.counter("abs.decays");
    maxrGauge_ = &registry.gauge("abs.maxr");
    ceilingGauge_ = &registry.gauge("abs.ceiling_scale");
    publishGauges();
}

void
AdaptiveBatchSensor::unbindMetrics()
{
    decaysCtr_ = nullptr;
    maxrGauge_ = nullptr;
    ceilingGauge_ = nullptr;
}

void
AdaptiveBatchSensor::publishGauges()
{
    if (maxrGauge_)
        maxrGauge_->set(static_cast<double>(maxr_));
    if (ceilingGauge_)
        ceilingGauge_->set(ceilingScale_);
}

void
AdaptiveBatchSensor::recomputeFromSchedule()
{
    const double start = opts_.initFactor * stats_.mrMean;
    const double batches =
        static_cast<double>(std::max<size_t>(stats_.batchCount, 1));
    const double i = static_cast<double>(batchIdx_);
    double v = start;
    switch (opts_.schedule) {
      case DecaySchedule::Logarithmic: {
        // Eq. 5-6 with the batch index driving the decay depth.
        const double alpha = stats_.mrMin * stats_.mrMin /
            std::max(stats_.mrMax, 1.0);
        const double beta = batches / std::max(alpha, 1e-9);
        v = start - alpha * std::log(i / beta + 1.0);
        break;
      }
      case DecaySchedule::Linear:
        v = start -
            (start - stats_.mrMin) * std::min(1.0, i / batches);
        break;
      case DecaySchedule::Exponential:
        v = stats_.mrMin +
            (start - stats_.mrMin) * std::exp(-i / batches);
        break;
      case DecaySchedule::None:
        break;
    }
    maxr_ = clampMaxr(v);
    ++decays_;
    if (decaysCtr_)
        decaysCtr_->add(1);
    publishGauges();
}

void
AdaptiveBatchSensor::observeLoss(double loss)
{
    ++batchIdx_;
    ++sinceDecision_;
    if (loss < bestLoss_ - 1e-4) {
        bestLoss_ = loss;
        sinceImprovement_ = 0;
    } else {
        ++sinceImprovement_;
    }
    if (sinceDecision_ >= opts_.period) {
        sinceDecision_ = 0;
        if (sinceImprovement_ >= opts_.plateau)
            recomputeFromSchedule();
    }
}

void
AdaptiveBatchSensor::resetEpoch()
{
    maxr_ = clampMaxr(opts_.initFactor * stats_.mrMean);
    batchIdx_ = 0;
    bestLoss_ = 1e30;
    sinceImprovement_ = 0;
    sinceDecision_ = 0;
    publishGauges();
}

void
AdaptiveBatchSensor::saveState(ByteWriter &w) const
{
    const Rng::State rs = rng_.state();
    for (size_t i = 0; i < 4; ++i)
        w.u64(rs.s[i]);
    w.f64(rs.cachedGaussian);
    w.u8(rs.hasCachedGaussian ? 1 : 0);
    w.f64(stats_.mrMax);
    w.f64(stats_.mrMean);
    w.f64(stats_.mrMin);
    w.u64(stats_.batchCount);
    w.u64(maxr_);
    w.f64(ceilingScale_);
    w.u64(batchIdx_);
    w.f64(bestLoss_);
    w.u64(sinceImprovement_);
    w.u64(sinceDecision_);
    w.u64(decays_);
}

bool
AdaptiveBatchSensor::loadState(ByteReader &r)
{
    Rng::State rs;
    uint8_t has_cached = 0;
    EnduranceStats stats;
    uint64_t batch_count = 0, maxr = 0, batch_idx = 0;
    uint64_t since_improve = 0, since_decision = 0, decays = 0;
    double ceiling = 1.0, best = 1e30;
    for (size_t i = 0; i < 4; ++i) {
        if (!r.u64(rs.s[i]))
            return false;
    }
    if (!r.f64(rs.cachedGaussian) || !r.u8(has_cached) ||
        !r.f64(stats.mrMax) || !r.f64(stats.mrMean) ||
        !r.f64(stats.mrMin) || !r.u64(batch_count) || !r.u64(maxr) ||
        !r.f64(ceiling) || !r.u64(batch_idx) || !r.f64(best) ||
        !r.u64(since_improve) || !r.u64(since_decision) ||
        !r.u64(decays)) {
        return false;
    }
    rs.hasCachedGaussian = has_cached != 0;
    rng_.setState(rs);
    stats.batchCount = static_cast<size_t>(batch_count);
    stats_ = stats;
    maxr_ = static_cast<size_t>(maxr);
    ceilingScale_ = ceiling;
    batchIdx_ = static_cast<size_t>(batch_idx);
    bestLoss_ = best;
    sinceImprovement_ = static_cast<size_t>(since_improve);
    sinceDecision_ = static_cast<size_t>(since_decision);
    decays_ = static_cast<size_t>(decays);
    return true;
}

} // namespace cascade
