#include "core/tg_diffuser.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"
#include "util/timer.hh"

namespace cascade {
namespace {

/** Empty bucket / end of a bucket's list. */
constexpr uint32_t kNoNode = UINT32_MAX;
/** A node with at most Max_r entries left has no key. */
constexpr uint32_t kNoKey = UINT32_MAX;

} // namespace

TgDiffuser::TgDiffuser(const EventSource &src,
                       const TemporalAdjacency &adj, size_t train_end,
                       Options opts)
    : src_(src), adj_(adj), trainEnd_(train_end), opts_(opts),
      next_(src.numNodes(), kNoNode)
{
    CASCADE_CHECK(train_end <= src.size(),
                  "TgDiffuser: train_end beyond stream");
    CASCADE_CHECK(src.numNodes() < kNoNode,
                  "TgDiffuser: node ids exceed uint32");
    const size_t chunk =
        opts_.chunkSize == 0 ? trainEnd_ : opts_.chunkSize;
    for (size_t lo = 0; lo < trainEnd_; lo += chunk)
        chunkBounds_.emplace_back(lo, std::min(trainEnd_, lo + chunk));
    if (chunkBounds_.empty())
        chunkBounds_.emplace_back(0, 0);

    // The first table always builds up front (nothing to overlap
    // with); its cost is charged as preprocessing either way.
    loadTable(0);
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
    maxr = std::max<size_t>(1, maxr);
    if (maxr != maxr_)
        cursor_ = SIZE_MAX; // every key moves
    maxr_ = maxr;
}

void
TgDiffuser::loadTable(size_t c)
{
    CASCADE_CHECK(c < chunkBounds_.size(), "loadTable: bad chunk");
    // Release first, so at most the prefetch and one table coexist.
    table_.reset();
    tableChunk_ = SIZE_MAX;
    Timer t;
    if (pendingChunk_ == c && pending_.active()) {
        // Pipelined build in flight: only the stall is preprocessing.
        // The slot is released before collect(), so a failed prefetch
        // leaves no stale pending state behind.
        pendingChunk_ = SIZE_MAX;
        table_ = pending_.collect();
    } else {
        table_ = std::make_unique<DependencyTable>(
            DependencyTable::build(src_, adj_, chunkBounds_[c].first,
                                   chunkBounds_[c].second));
    }
    tableChunk_ = c;
    prepSeconds_ += t.seconds();
}

void
TgDiffuser::enterChunk(size_t c)
{
    if (tableChunk_ != c)
        loadTable(c);
    curChunk_ = c;
    cursor_ = SIZE_MAX;
    head_.assign(chunkBounds_[c].second - chunkBounds_[c].first, kNoNode);

    // Prefetch the next chunk's table on a worker thread. A build
    // that throws is captured in the cell and surfaces at the
    // consuming loadTable, never on the worker.
    if (c + 1 < chunkBounds_.size() && pendingChunk_ == SIZE_MAX) {
        const auto [lo, hi] = chunkBounds_[c + 1];
        pendingChunk_ = c + 1;
        pending_.launch([this, lo, hi] {
            return std::make_unique<DependencyTable>(
                DependencyTable::build(src_, adj_, lo, hi));
        });
    }
}

uint32_t
TgDiffuser::keyAt(const DependencyTable &table, uint32_t n,
                  size_t st) const
{
    const auto entry = table.entry(static_cast<NodeId>(n));
    const uint32_t rel = static_cast<uint32_t>(st - table.rangeLo());
    const size_t at = static_cast<size_t>(
        std::lower_bound(entry.begin(), entry.end(), rel) - entry.begin());
    // A node constrains the batch only when more than Max_r relevant
    // events remain; with fewer, every remaining event is tolerable
    // (the "-" / MAX_INT entries of Figure 7(b)).
    return entry.size() - at > maxr_ ? entry[at + maxr_] : kNoKey;
}

void
TgDiffuser::enqueue(uint32_t n, uint32_t key)
{
    if (key == kNoKey)
        return;
    next_[n] = head_[key];
    head_[key] = n;
}

size_t
TgDiffuser::lastTolerableEnd(size_t st, const std::vector<uint8_t> &stable)
{
    CASCADE_CHECK(st < trainEnd_, "lastTolerableEnd: st out of range");

    const size_t c = opts_.chunkSize == 0 ? 0 : st / opts_.chunkSize;
    if (c != curChunk_)
        enterChunk(c);
    const DependencyTable &table = *table_;
    const size_t lo = chunkBounds_[c].first;
    const size_t chunk_hi = chunkBounds_[c].second;
    if (st != cursor_) {
        std::fill(head_.begin(), head_.end(), kNoNode);
        for (NodeId n : table.activeNodes()) {
            const uint32_t id = static_cast<uint32_t>(n);
            enqueue(id, keyAt(table, id, st));
        }
    }

    // Walk the buckets up from st. Every queued key is >= st and at
    // most the node's exact key at st, so the first bucket holding a
    // non-stable node whose exact key is that bucket is the minimum;
    // nodes met with a larger key move forward. SG-Filter's stable
    // nodes pose no barrier: they wait in passed_ for a re-key.
    size_t ed = chunk_hi;
    for (size_t b = st - lo; b < head_.size() && ed == chunk_hi; ++b) {
        uint32_t n = std::exchange(head_[b], kNoNode);
        while (n != kNoNode) {
            const uint32_t following = next_[n];
            const uint32_t key = keyAt(table, n, st);
            if (key != b) {
                enqueue(n, key);
            } else if (stable.empty() || !stable[n]) {
                // The boundary event itself belongs to the batch
                // (Figure 7(b): the batch's last event *is* the first
                // intolerable one). The rest of the bucket is passed.
                ed = lo + b + 1;
                for (; n != kNoNode; n = next_[n])
                    passed_.push_back(n);
                break;
            } else {
                passed_.push_back(n);
            }
            n = following;
        }
    }
    CASCADE_CHECK(ed > st, "lastTolerableEnd made no progress");

    // Every passed node has its exact key in [st, ed); re-key them at
    // ed so the queue holds for the batch that starts there.
    if (ed < chunk_hi) {
        for (uint32_t n : passed_)
            enqueue(n, keyAt(table, n, ed));
    }
    passed_.clear();
    cursor_ = ed;
    return ed;
}

void
TgDiffuser::resetEpoch()
{
    curChunk_ = SIZE_MAX;
    cursor_ = SIZE_MAX;
}

} // namespace cascade
