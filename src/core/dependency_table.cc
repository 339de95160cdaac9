#include "core/dependency_table.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/timer.hh"

namespace cascade {
namespace {

/**
 * Call visit(e - lo) once for every dependent event e of node n in
 * [lo, hi), in no particular order, setting its bit in `seen` (one
 * bit per event of the range; the caller clears the bits again). A
 * neighbor q's future events are walked only at the first event
 * connecting n and q, since a later connection adds a subset of them.
 * That first connection is the own event whose bit is still clear: a
 * later e(n,q) is itself one of q's future events and already marked.
 */
template <typename Visit>
void
forEachDependent(const EventSource &src, const TemporalAdjacency &adj,
                 NodeId n, EventIdx lo, EventIdx hi,
                 std::vector<uint64_t> &seen, Visit &&visit)
{
    // True if e was unmarked; marks it.
    auto mark = [&](EventIdx e) {
        const uint64_t rel = static_cast<uint64_t>(e - lo);
        uint64_t &word = seen[rel >> 6];
        const uint64_t bit = uint64_t{1} << (rel & 63);
        if (word & bit)
            return false;
        word |= bit;
        visit(static_cast<uint32_t>(rel));
        return true;
    };
    const auto &own = adj.eventsOf(n);
    auto first = std::lower_bound(own.begin(), own.end(), lo);
    auto last = std::lower_bound(first, own.end(), hi);
    for (auto it = first; it != last; ++it) {
        if (!mark(*it))
            continue; // the counterpart was connected earlier
        const Event e = src.event(*it);
        const NodeId q = e.src == n ? e.dst : e.src;
        if (q == n)
            continue;
        const auto &qev = adj.eventsOf(q);
        auto qfirst = std::upper_bound(qev.begin(), qev.end(), *it);
        auto qlast = std::lower_bound(qfirst, qev.end(), hi);
        for (auto qit = qfirst; qit != qlast; ++qit)
            mark(*qit);
    }
}

/** Undo forEachDependent's marks. Zeroing whole words is enough:
 *  every bit set in `seen` belongs to the run being cleared. */
void
clearBits(std::vector<uint64_t> &seen, const uint32_t *rel, size_t count)
{
    for (size_t i = 0; i < count; ++i)
        seen[rel[i] >> 6] = 0;
}

} // namespace

DependencyTable
DependencyTable::build(const EventSource &src,
                       const TemporalAdjacency &adj, size_t lo, size_t hi)
{
    CASCADE_CHECK(lo <= hi && hi <= src.size(),
                  "DependencyTable: bad range");
    CASCADE_CHECK(hi - lo <= UINT32_MAX,
                  "DependencyTable: range exceeds uint32 offsets");
    Timer timer;
    DependencyTable table;
    table.lo_ = lo;
    table.hi_ = hi;
    const size_t nodes = src.numNodes();
    const size_t words = (hi - lo + 63) / 64;
    const EventIdx ilo = static_cast<EventIdx>(lo);
    const EventIdx ihi = static_cast<EventIdx>(hi);

    // Pass 1, loop-parallel over nodes (Algorithm 2): count each
    // node's unique entries into offsets_[n + 1].
    table.offsets_.assign(nodes + 1, 0);
    parallelForChunks(0, nodes, [&](size_t a, size_t b) {
        std::vector<uint64_t> seen(words, 0);
        std::vector<uint32_t> run;
        for (size_t n = a; n < b; ++n) {
            run.clear();
            forEachDependent(src, adj, static_cast<NodeId>(n), ilo, ihi,
                             seen, [&](uint32_t e) { run.push_back(e); });
            clearBits(seen, run.data(), run.size());
            table.offsets_[n + 1] = run.size();
        }
    }, 64);
    for (size_t n = 0; n < nodes; ++n)
        table.offsets_[n + 1] += table.offsets_[n];

    // Pass 2: one exact-size index, each node's run written in place.
    table.index_.resize(table.offsets_[nodes]);
    parallelForChunks(0, nodes, [&](size_t a, size_t b) {
        std::vector<uint64_t> seen(words, 0);
        for (size_t n = a; n < b; ++n) {
            uint32_t *out = table.index_.data() + table.offsets_[n];
            size_t k = 0;
            forEachDependent(src, adj, static_cast<NodeId>(n), ilo, ihi,
                             seen, [&](uint32_t e) { out[k++] = e; });
            clearBits(seen, out, k);
            std::sort(out, out + k);
        }
    }, 64);

    size_t active = 0;
    for (size_t n = 0; n < nodes; ++n)
        active += table.offsets_[n + 1] > table.offsets_[n];
    table.active_.reserve(active);
    for (size_t n = 0; n < nodes; ++n) {
        if (table.offsets_[n + 1] > table.offsets_[n])
            table.active_.push_back(static_cast<NodeId>(n));
    }
    table.buildSeconds_ = timer.seconds();
    return table;
}

size_t
DependencyTable::bytes() const
{
    return offsets_.capacity() * sizeof(uint64_t) +
        index_.capacity() * sizeof(uint32_t) +
        active_.capacity() * sizeof(NodeId);
}

} // namespace cascade
