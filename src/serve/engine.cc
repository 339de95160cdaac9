#include "serve/engine.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/timer.hh"

namespace cascade {

ServeEngine::ServeEngine(TgnnModel &model, const EventSource &data,
                         const TemporalAdjacency &adj,
                         size_t applied_events,
                         obs::MetricsRegistry *metrics)
    : model_(model), data_(data), adj_(adj), metrics_(metrics)
{
    CASCADE_CHECK(applied_events <= data.size(),
                  "serve: applied_events beyond the stream");
    if (!metrics_) {
        ownedMetrics_ = std::make_unique<obs::MetricsRegistry>();
        metrics_ = ownedMetrics_.get();
    }
    const double last_ts =
        applied_events > 0
            ? data.event(static_cast<EventIdx>(applied_events - 1)).ts
            : 0.0;
    publish(applied_events, last_ts);
}

std::shared_ptr<const ServeSnapshot>
ServeEngine::snapshot() const
{
    LockGuard lock(snapMutex_);
    return snap_;
}

void
ServeEngine::publish(size_t applied_events, double last_ts)
{
    uint64_t version = 1;
    {
        LockGuard lock(snapMutex_);
        if (snap_)
            version = snap_->version + 1;
    }
    auto next = std::make_shared<const ServeSnapshot>(ServeSnapshot{
        version, applied_events, last_ts, model_.saveState()});
    {
        LockGuard lock(snapMutex_);
        snap_ = std::move(next);
    }
    metrics_->counter("serve.snapshots").add(1);
    metrics_->gauge("serve.applied_events")
        .set(static_cast<double>(applied_events));
}

size_t
ServeEngine::applyEvents(size_t max_events, size_t batch)
{
    CASCADE_CHECK(batch > 0, "serve: apply batch must be > 0");
    // Both sums are bounded by subtraction, so counts near SIZE_MAX
    // cannot wrap.
    const size_t start = snapshot()->appliedEvents;
    const size_t goal =
        start + std::min(max_events, data_.size() - start);
    if (goal == start)
        return 0;
    Timer t;
    size_t cur = start;
    while (cur < goal) {
        const size_t ed = cur + std::min(batch, goal - cur);
        model_.advanceState(data_, cur, ed);
        cur = ed;
    }
    // Applied pages behind the window are cold from here on; an
    // mmap-backed source may drop them (advisory no-op otherwise).
    data_.hintConsumed(static_cast<EventIdx>(cur));
    publish(cur, data_.event(static_cast<EventIdx>(cur - 1)).ts);
    metrics_->histogram("serve.apply.seconds").record(t.seconds());
    metrics_->counter("serve.events_applied").add(cur - start);
    return cur - start;
}

Tensor
ServeReader::embed(const std::vector<NodeId> &nodes)
{
    Timer t;
    snap_ = engine_.snapshot();
    Tensor out = engine_.model().embedNodes(
        snap_->state, nodes, snap_->lastTs, engine_.data(), engine_.adj(),
        static_cast<EventIdx>(snap_->appliedEvents));
    engine_.metrics().histogram("serve.embed.seconds")
        .record(t.seconds());
    return out;
}

Tensor
ServeReader::scoreLinks(const std::vector<NodeId> &srcs,
                        const std::vector<NodeId> &dsts)
{
    Timer t;
    snap_ = engine_.snapshot();
    Tensor out = engine_.model().scoreLinks(
        snap_->state, srcs, dsts, snap_->lastTs, engine_.data(),
        engine_.adj(), static_cast<EventIdx>(snap_->appliedEvents));
    engine_.metrics().histogram("serve.score.seconds")
        .record(t.seconds());
    return out;
}

} // namespace cascade
