/**
 * @file
 * Adaptive Batch Sensor (§4.4).
 *
 * Before training, ABS profiles "Max Endurance" — the largest number
 * of relevant events any node sees inside a batch — over randomly
 * sampled batches of the preset small batch size, yielding mr_max /
 * mr_mean / mr_min and the base-batch count B.
 *
 * During training it drives the TG-Diffuser's Max_r: initialized to
 * 2·mr_mean, checked every `period` (20) batches, and decayed
 * logarithmically toward mr_min whenever the training loss has not
 * improved for `plateau` (10) consecutive batches:
 *
 *     Max_r(i) = 2·mr_mean − α·log(i/β + 1),
 *     α = mr_min² / mr_max,   β = B / α            (Eq. 5-6)
 *
 * always clamped into [mr_min, mr_max]. (Eq. 7 in the paper swaps the
 * min/max arguments; the clamp is the evident intent.)
 */

#ifndef CASCADE_CORE_ABS_HH
#define CASCADE_CORE_ABS_HH

#include <cstddef>
#include <deque>

#include "core/dependency_table.hh"
#include "graph/event.hh"
#include "util/rng.hh"

namespace cascade {

class ByteWriter;
class ByteReader;

/** Profiled endurance statistics (Figure 9). */
struct EnduranceStats
{
    double mrMax = 0.0;
    double mrMean = 0.0;
    double mrMin = 0.0;
    size_t batchCount = 0; ///< base-size batches in the sequence (B)
};

/**
 * Max_r decay schedule. The paper uses the logarithmic form (Eq. 5);
 * the alternatives exist for the ablation study of the design choice
 * (bench_ablation_decay): linear decays too aggressively early,
 * exponential too slowly, None disables adaptation entirely.
 */
enum class DecaySchedule
{
    Logarithmic, ///< Eq. 5 (paper default)
    Linear,      ///< straight line from 2·mean to mr_min over B batches
    Exponential, ///< geometric approach toward mr_min
    None         ///< keep the initial 2·mean forever
};

/** Profile-based Max_r auto-tuner. */
class AdaptiveBatchSensor
{
  public:
    struct Options
    {
        size_t baseBatch = 100;   ///< preset small batch size
        size_t sampleBatches = 50;///< batches profiled (§5.4)
        size_t period = 20;       ///< decision cadence (§5.1)
        size_t plateau = 10;      ///< loss-stall window (§4.4)
        DecaySchedule schedule = DecaySchedule::Logarithmic;
        /**
         * Max_r initialization as a multiple of mr_mean. The paper
         * empirically picks 2 ("the maximum is too aggressive, the
         * mean can be too conservative", §4.4); the ablation bench
         * sweeps this.
         */
        double initFactor = 2.0;
        uint64_t seed = 7;
    };

    explicit AdaptiveBatchSensor(Options opts);

    /**
     * Max-endurance profiling (Figure 9): counts each involved
     * node's dependency-table entries inside sampled base batches.
     */
    EnduranceStats profile(const EventSource &src,
                           const DependencyTable &table);

    /** Profile a resident sequence. */
    EnduranceStats
    profile(const EventSequence &seq, const DependencyTable &table)
    {
        return profile(VectorEventSource(seq), table);
    }

    /** Adopt externally computed stats (testing hook). */
    void setStats(const EnduranceStats &stats);
    const EnduranceStats &stats() const { return stats_; }

    /** Current Max_r for the TG-Diffuser. */
    size_t currentMaxRevisit() const { return maxr_; }

    /** Feed one batch's training loss; may trigger decay. */
    void observeLoss(double loss);

    /** Restart the per-epoch loss tracking and Max_r schedule. */
    void resetEpoch();

    /** Number of decay events fired (diagnostics). */
    size_t decayCount() const { return decays_; }

    /**
     * Halve the Max_r ceiling (numeric-guard rollback): after a
     * divergence the sensor retries with smaller, safer batches. The
     * tightened ceiling persists across epochs and checkpoints.
     */
    void tightenCeiling();

    /** Current ceiling multiplier in (0, 1]; 1 = never tightened. */
    double ceilingScale() const { return ceilingScale_; }

    /** Serialize schedule position, stats and RNG (checkpointing). */
    void saveState(ByteWriter &w) const;

    /**
     * Restore state written by saveState.
     * @return false on a short payload (state untouched)
     */
    bool loadState(ByteReader &r);

  private:
    size_t clampMaxr(double v) const;
    void recomputeFromSchedule();

    Options opts_;
    Rng rng_;
    EnduranceStats stats_;
    size_t maxr_ = 8;
    double ceilingScale_ = 1.0;

    size_t batchIdx_ = 0;
    double bestLoss_ = 1e30;
    size_t sinceImprovement_ = 0;
    size_t sinceDecision_ = 0;
    size_t decays_ = 0;
};

} // namespace cascade

#endif // CASCADE_CORE_ABS_HH
