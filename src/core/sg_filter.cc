#include "core/sg_filter.hh"

#include <algorithm>

#include "util/binio.hh"
#include "util/logging.hh"

namespace cascade {

SgFilter::SgFilter(size_t num_nodes, double threshold)
    : threshold_(threshold), flags_(num_nodes, 0)
{}

void
SgFilter::reset()
{
    std::fill(flags_.begin(), flags_.end(), 0);
    stableCount_ = 0;
    updatesTotal_ = 0;
    updatesStable_ = 0;
}

void
SgFilter::update(std::span<const NodeId> nodes, std::span<const double> cos)
{
    CASCADE_CHECK(nodes.size() == cos.size(),
                  "SgFilter::update size mismatch");
    for (size_t i = 0; i < nodes.size(); ++i) {
        const size_t n = static_cast<size_t>(nodes[i]);
        const bool stable = cos[i] > threshold_;
        ++updatesTotal_;
        if (stable)
            ++updatesStable_;
        if (stable && !flags_[n]) {
            flags_[n] = 1;
            ++stableCount_;
        } else if (!stable && flags_[n]) {
            flags_[n] = 0;
            --stableCount_;
        }
    }
}

double
SgFilter::stableUpdateRatio() const
{
    return updatesTotal_
        ? static_cast<double>(updatesStable_) / updatesTotal_
        : 0.0;
}

void
SgFilter::saveState(ByteWriter &w) const
{
    w.u64(flags_.size());
    if (!flags_.empty())
        w.bytes(flags_.data(), flags_.size());
    w.u64(stableCount_);
    w.u64(updatesTotal_);
    w.u64(updatesStable_);
}

bool
SgFilter::loadState(ByteReader &r)
{
    uint64_t n = 0;
    if (!r.u64(n) || n != flags_.size())
        return false;
    std::vector<uint8_t> flags(static_cast<size_t>(n), 0);
    uint64_t stable = 0, total = 0, stable_updates = 0;
    if ((!flags.empty() && !r.bytes(flags.data(), flags.size())) ||
        !r.u64(stable) || !r.u64(total) || !r.u64(stable_updates)) {
        return false;
    }
    flags_ = std::move(flags);
    stableCount_ = static_cast<size_t>(stable);
    updatesTotal_ = static_cast<size_t>(total);
    updatesStable_ = static_cast<size_t>(stable_updates);
    return true;
}

} // namespace cascade
