#include "core/tg_diffuser.hh"

#include <algorithm>
#include <limits>
#include <mutex>

#include "obs/metrics.hh"
#include "util/binio.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/timer.hh"

namespace cascade {

TgDiffuser::TgDiffuser(const EventSource &src,
                       const TemporalAdjacency &adj, size_t train_end,
                       Options opts)
    : src_(src), adj_(adj), trainEnd_(train_end), opts_(opts),
      ptrs_(src.numNodes(), 0)
{
    CASCADE_CHECK(train_end <= src.size(),
                  "TgDiffuser: train_end beyond stream");
    const size_t chunk =
        opts_.chunkSize == 0 ? trainEnd_ : opts_.chunkSize;
    for (size_t lo = 0; lo < trainEnd_; lo += chunk)
        chunkBounds_.emplace_back(lo, std::min(trainEnd_, lo + chunk));
    if (chunkBounds_.empty())
        chunkBounds_.emplace_back(0, 0);
    tables_.resize(chunkBounds_.size());

    // The first table always builds up front (nothing to overlap
    // with); its cost is charged as preprocessing either way.
    Timer t;
    tables_[0] = std::make_unique<DependencyTable>(DependencyTable::build(
        src_, adj_, chunkBounds_[0].first, chunkBounds_[0].second));
    prepSeconds_ += t.seconds();
}

TgDiffuser::~TgDiffuser()
{
    // AsyncCell's destructor also drops, but doing it here keeps the
    // join ahead of the members the worker lambda reads.
    if (pending_.active())
        pending_.drop();
}

void
TgDiffuser::setMaxRevisit(size_t maxr)
{
    maxr_ = std::max<size_t>(1, maxr);
}

void
TgDiffuser::bindMetrics(obs::MetricsRegistry &registry)
{
    lookupHist_ = &registry.histogram("stage.lookup.seconds");
    prepGauge_ = &registry.gauge("diffuser.preprocess_seconds");
    tableBytesGauge_ = &registry.gauge("diffuser.table_bytes");
    prepGauge_->set(prepSeconds_);
    tableBytesGauge_->set(static_cast<double>(tableBytes()));
}

void
TgDiffuser::unbindMetrics()
{
    lookupHist_ = nullptr;
    prepGauge_ = nullptr;
    tableBytesGauge_ = nullptr;
}

const DependencyTable &
TgDiffuser::ensureChunk(size_t c)
{
    CASCADE_CHECK(c < tables_.size(), "ensureChunk: bad chunk");
    if (tables_[c])
        return *tables_[c];
    Timer t;
    if (pendingChunk_ == c && pending_.active()) {
        // Pipelined build in flight: only the stall is preprocessing.
        // The slot is released before collect(), so a failed prefetch
        // leaves no stale pending state behind.
        pendingChunk_ = SIZE_MAX;
        tables_[c] = pending_.collect();
    } else {
        tables_[c] = std::make_unique<DependencyTable>(
            DependencyTable::build(src_, adj_, chunkBounds_[c].first,
                                   chunkBounds_[c].second));
    }
    prepSeconds_ += t.seconds();
    if (prepGauge_)
        prepGauge_->set(prepSeconds_);
    if (tableBytesGauge_)
        tableBytesGauge_->set(static_cast<double>(tableBytes()));
    return *tables_[c];
}

void
TgDiffuser::enterChunk(size_t c)
{
    const DependencyTable &table = ensureChunk(c);
    curChunk_ = c;
    for (NodeId n : table.activeNodes())
        ptrs_[static_cast<size_t>(n)] = 0;

    // Prefetch the next chunk's table on a worker thread. A build
    // that throws is captured in the cell and surfaces at the
    // consuming ensureChunk, never on the worker.
    if (opts_.pipeline && c + 1 < tables_.size() && !tables_[c + 1] &&
        pendingChunk_ == SIZE_MAX) {
        const auto [lo, hi] = chunkBounds_[c + 1];
        pendingChunk_ = c + 1;
        pending_.launch([this, lo, hi] {
            return std::make_unique<DependencyTable>(
                DependencyTable::build(src_, adj_, lo, hi));
        });
    }
}

size_t
TgDiffuser::lastTolerableEnd(size_t st, const std::vector<uint8_t> &stable)
{
    CASCADE_CHECK(st < trainEnd_, "lastTolerableEnd: st out of range");
    Timer timer;

    // Advance the chunk cursor to the one containing st.
    size_t c = curChunk_ == SIZE_MAX ? 0 : curChunk_;
    while (c + 1 < chunkBounds_.size() && st >= chunkBounds_[c].second)
        ++c;
    if (c != curChunk_)
        enterChunk(c);
    const DependencyTable &table = *tables_[c];
    const size_t chunk_hi = chunkBounds_[c].second;

    // Loop-parallel min-reduction over active nodes (Algorithm 3).
    const auto &active = table.activeNodes();
    constexpr EventIdx kMax = std::numeric_limits<EventIdx>::max();
    EventIdx best = kMax;
    AnnotatedMutex merge; // serializes the per-chunk min merges
    parallelForChunks(0, active.size(), [&](size_t lo, size_t hi) {
        EventIdx local = kMax;
        for (size_t i = lo; i < hi; ++i) {
            const NodeId n = active[i];
            if (!stable.empty() &&
                stable[static_cast<size_t>(n)]) {
                continue; // SG-Filter: stable nodes pose no barrier
            }
            const auto &entry = table.entry(n);
            const size_t ptr = ptrs_[static_cast<size_t>(n)];
            // A node constrains the batch only when more than Max_r
            // relevant events remain; with fewer, every remaining
            // event is tolerable (the "-" / MAX_INT entries of
            // Figure 7(b)).
            if (ptr + maxr_ >= entry.size())
                continue;
            local = std::min(local, entry[ptr + maxr_]);
        }
        LockGuard lock(merge);
        best = std::min(best, local);
    }, 512);

    // The boundary event itself belongs to the batch (Figure 7(b):
    // the batch's last event *is* the first intolerable one).
    size_t ed = best == kMax
        ? chunk_hi
        : std::min(chunk_hi, static_cast<size_t>(best) + 1);
    ed = std::max(ed, st + 1);
    ed = std::min(ed, chunk_hi);
    CASCADE_CHECK(ed > st, "lastTolerableEnd made no progress");

    // Advance every node's pointer past the batch's events.
    const EventIdx edi = static_cast<EventIdx>(ed);
    parallelFor(0, active.size(), [&](size_t i) {
        const NodeId n = active[i];
        const auto &entry = table.entry(n);
        size_t &ptr = ptrs_[static_cast<size_t>(n)];
        while (ptr < entry.size() && entry[ptr] < edi)
            ++ptr;
    }, 512);

    const double dt = timer.seconds();
    lookupSeconds_ += dt;
    if (lookupHist_)
        lookupHist_->record(dt);
    return ed;
}

void
TgDiffuser::resetEpoch()
{
    curChunk_ = SIZE_MAX;
    std::fill(ptrs_.begin(), ptrs_.end(), 0);
}

void
TgDiffuser::saveState(ByteWriter &w) const
{
    w.u64(curChunk_ == SIZE_MAX ? UINT64_MAX
                                : static_cast<uint64_t>(curChunk_));
    w.u64(maxr_);
    w.u64(ptrs_.size());
    if (!ptrs_.empty())
        w.bytes(ptrs_.data(), ptrs_.size() * sizeof(size_t));
}

bool
TgDiffuser::loadState(ByteReader &r)
{
    uint64_t chunk = 0, maxr = 0, n = 0;
    if (!r.u64(chunk) || !r.u64(maxr) || !r.u64(n) ||
        n != ptrs_.size()) {
        return false;
    }
    if (chunk != UINT64_MAX && chunk >= chunkBounds_.size())
        return false;
    std::vector<size_t> ptrs(static_cast<size_t>(n), 0);
    if (!ptrs.empty() &&
        !r.bytes(ptrs.data(), ptrs.size() * sizeof(size_t))) {
        return false;
    }
    maxr_ = std::max<uint64_t>(1, maxr);
    if (chunk == UINT64_MAX) {
        resetEpoch();
    } else {
        // enterChunk builds the table (and prefetches the next) and
        // zeroes the active pointers; the saved cursors then replace
        // them so the batch-boundary search resumes mid-epoch.
        enterChunk(static_cast<size_t>(chunk));
    }
    ptrs_ = std::move(ptrs);
    return true;
}

size_t
TgDiffuser::tableBytes() const
{
    size_t b = 0;
    for (const auto &t : tables_) {
        if (t)
            b += t->bytes();
    }
    return b;
}

} // namespace cascade
