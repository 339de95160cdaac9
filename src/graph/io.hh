/**
 * @file
 * Event-sequence persistence (implementation layer).
 *
 * Two interchange formats:
 *  - CSV ("src,dst,ts" with a header line), the layout TGL-style
 *    pipelines ship their edge lists in — features are not included;
 *  - a binary container holding events *and* edge features, for
 *    fast reloads of synthesized benchmark datasets.
 *
 * The public loader surface is `Dataset::open` / `Dataset::saveCsv` /
 * `Dataset::saveBinary` (graph/dataset.hh), which adds format
 * sniffing and the mmap event-log backend; the functions below are
 * its implementation.
 */

#ifndef CASCADE_GRAPH_IO_HH
#define CASCADE_GRAPH_IO_HH

#include <string>

#include "graph/event.hh"

namespace cascade {

namespace detail {

/** Implementation behind Dataset::saveCsv. */
bool saveCsvImpl(const EventSequence &seq, const std::string &path);
/** Implementation behind Dataset::open(Csv); numNodes = max id + 1. */
bool loadCsvImpl(EventSequence &seq, const std::string &path);
/** Implementation behind Dataset::saveBinary (events + features). */
bool saveBinaryImpl(const EventSequence &seq, const std::string &path);
/** Implementation behind Dataset::open(Binary). */
bool loadBinaryImpl(EventSequence &seq, const std::string &path);

} // namespace detail

} // namespace cascade

#endif // CASCADE_GRAPH_IO_HH
