#include "sim/device_model.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cascade {

// Calibration notes (§3.1 targets, TGN on WIKI, ~3.4 effective
// rows/event):
//   * BS=900 => 3060 rows, one 18432-lane wave, utilization 17%
//     (paper: 17.2% SM utilization);
//   * BS=6000 => 20400 rows, two waves, so per-event latency ratio
//       t(6000)/t(900) = (900/6000)(tLaunch + 2 tWave)
//                                  /(tLaunch + tWave) ≈ 0.29,
//     reproducing the paper's 71% latency reduction at BS=6000, with
//     tLaunch small against tWave so compute dominates single waves.

DeviceModel::DeviceModel(DeviceParams params)
    : params_(params)
{
    CASCADE_CHECK(params_.lanes > 0, "DeviceModel: lanes must be > 0");
}

double
DeviceModel::charge(size_t events, size_t work_rows,
                    size_t sampled_neighbors)
{
    (void)events;
    const size_t waves =
        (work_rows + params_.lanes - 1) / params_.lanes;
    const double t = params_.tLaunch +
        static_cast<double>(sampled_neighbors) * params_.tSample +
        static_cast<double>(waves) * params_.tWave;
    total_ += t;
    ++batches_;
    rows_ += work_rows;
    laneSlots_ += waves * params_.lanes;
    return t;
}

double
DeviceModel::utilization() const
{
    if (laneSlots_ == 0)
        return 0.0;
    return static_cast<double>(rows_) / static_cast<double>(laneSlots_);
}

DeviceParams
scaledDeviceParams(size_t base_batch)
{
    DeviceParams p;
    const double frac = static_cast<double>(base_batch) / 900.0;
    p.lanes = std::max<size_t>(
        32, static_cast<size_t>(p.lanes * frac));
    return p;
}

void
DeviceModel::reset()
{
    total_ = 0.0;
    batches_ = 0;
    rows_ = 0;
    laneSlots_ = 0;
}

} // namespace cascade
