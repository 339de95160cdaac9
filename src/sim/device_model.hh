/**
 * @file
 * Calibrated accelerator cost model.
 *
 * The paper's speedups come from a GPU mechanism: small batches leave
 * the device underutilized and pay a fixed per-iteration overhead
 * (kernel launches, optimizer step, host glue), while large batches
 * amortize that overhead and fill the compute lanes. No GPU is
 * available here, so the benchmarks report, alongside measured CPU
 * wall time, a modeled device time that reproduces exactly that
 * mechanism:
 *
 *   t(batch) = tLaunch
 *            + sampledNeighbors * tSample          (host-side sampler)
 *            + ceil(workRows / lanes) * tWave      (device compute)
 *
 * Utilization = workRows / (waves * lanes), matching the paper's
 * observation that BS=900 runs TGN/WIKI at ~17% SM utilization while
 * BS=6000 reaches ~40% (§3.1).
 *

 * Calibration (see the CalibrationLargeBatches tests): a TGN event
 * pushes ~3.4 effective rows (3 endpoint roles x (self + lane-
 * weighted fanout-1 GAT)), so a 900-event batch fills 3060/18432 =
 * 17% of the lanes — the paper's 17.2% SM utilization — and
 * latency(BS=6000)/latency(BS=900) ≈ 0.29 — the paper's "BS=6000
 * reduces 71% of training latency". Scaled experiments shrink the
 * lane count with scaledDeviceParams() so the base batch keeps the
 * same fill fraction.
 */

#ifndef CASCADE_SIM_DEVICE_MODEL_HH
#define CASCADE_SIM_DEVICE_MODEL_HH

#include <cstddef>

namespace cascade {

/** Tunable constants of the device cost model. */
struct DeviceParams
{
    /** Fixed per-batch overhead in seconds. */
    double tLaunch = 1.5e-4;
    /** Seconds per sampled temporal neighbor (host sampler). */
    double tSample = 2.0e-7;
    /** Effective dense rows the device processes concurrently. */
    size_t lanes = 18432;
    /** Seconds per full wave of `lanes` rows. */
    double tWave = 2.0e-3;
};

/**
 * DeviceParams resized for a scaled experiment: the lane count
 * shrinks proportionally with the base batch (paper's 900) so the
 * scaled base batch occupies the same fraction of the device.
 */
DeviceParams scaledDeviceParams(size_t base_batch);

/** Accumulates modeled device time and utilization over batches. */
class DeviceModel
{
  public:
    explicit DeviceModel(DeviceParams params = DeviceParams{});

    /**
     * Charge one batch.
     * @param events            batch event count
     * @param work_rows         dense rows pushed through the model
     * @param sampled_neighbors neighbor samples drawn
     * @return modeled seconds for this batch
     */
    double charge(size_t events, size_t work_rows,
                  size_t sampled_neighbors);

    /** Total modeled seconds so far. */
    double totalSeconds() const { return total_; }

    /** Row-weighted average lane utilization in [0, 1]. */
    double utilization() const;

    size_t batches() const { return batches_; }

    /** Clear all accumulated charges. */
    void reset();

    const DeviceParams &params() const { return params_; }

  private:
    DeviceParams params_;
    double total_ = 0.0;
    size_t batches_ = 0;
    size_t rows_ = 0;
    size_t laneSlots_ = 0;
};

} // namespace cascade

#endif // CASCADE_SIM_DEVICE_MODEL_HH
