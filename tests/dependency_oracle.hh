/**
 * @file
 * Brute-force Algorithm 2 reference shared by the dependency-table
 * and TG-Diffuser tests: the dependency table built straight from its
 * definition, with no adjacency index and no pruning. Also the one
 * helper through which those tests read a built table's entries.
 */

#ifndef CASCADE_TESTS_DEPENDENCY_ORACLE_HH
#define CASCADE_TESTS_DEPENDENCY_ORACLE_HH

#include <set>
#include <vector>

#include "core/dependency_table.hh"
#include "graph/event.hh"

namespace cascade {

/** Entry of node n as absolute event indices (the table stores
 *  offsets from its range start). */
inline std::vector<EventIdx>
absoluteEntry(const DependencyTable &table, NodeId n)
{
    std::vector<EventIdx> out;
    for (uint32_t e : table.entry(n))
        out.push_back(static_cast<EventIdx>(table.rangeLo() + e));
    return out;
}

/**
 * Relevant events of every node within [lo, hi), O(N * E^2): node n's
 * own events, plus every later event in the range that touches the
 * counterpart q of one of n's events.
 */
inline std::vector<std::set<EventIdx>>
bruteForceTable(const EventSequence &seq, size_t lo, size_t hi)
{
    std::vector<std::set<EventIdx>> table(seq.numNodes);
    for (size_t n = 0; n < seq.numNodes; ++n) {
        for (size_t i = lo; i < hi; ++i) {
            const Event &e = seq.events[i];
            if (e.src != static_cast<NodeId>(n) &&
                e.dst != static_cast<NodeId>(n)) {
                continue;
            }
            table[n].insert(static_cast<EventIdx>(i));
            const NodeId q =
                e.src == static_cast<NodeId>(n) ? e.dst : e.src;
            for (size_t j = i + 1; j < hi; ++j) {
                const Event &f = seq.events[j];
                if (f.src == q || f.dst == q)
                    table[n].insert(static_cast<EventIdx>(j));
            }
        }
    }
    return table;
}

} // namespace cascade

#endif // CASCADE_TESTS_DEPENDENCY_ORACLE_HH
