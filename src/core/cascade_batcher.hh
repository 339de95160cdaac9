/**
 * @file
 * The Cascade batching policy (Algorithm 1, §4.1).
 *
 * Wires the three components together:
 *   preprocessing — TG-Diffuser builds the dependency table(s), ABS
 *   profiles Max Endurance on the preset small batch size and sets
 *   Max_r;
 *   per epoch     — SG-Filter flags reset, diffuser position forgotten;
 *   per batch     — stable flags are fetched, the last tolerable
 *   event found (Algorithm 3), and after the model step the SG-Filter
 *   flags and the ABS loss schedule are refreshed from feedback.
 *
 * Configurations: `enableSgFilter=false` gives the paper's Cascade-TB
 * ablation (§5.3); `chunkSize>0` gives Cascade_EX (§5.5), whose next
 * chunk's table always builds while the current chunk trains.
 *
 * The batcher and its components hold no metrics instruments: their
 * accessors (preprocessSeconds, stateBytes, diffuser(), sgFilter(),
 * abs()) are read by the TrainingSession, which publishes them at the
 * end of a run, and by the benchmarks and tests.
 */

#ifndef CASCADE_CORE_CASCADE_BATCHER_HH
#define CASCADE_CORE_CASCADE_BATCHER_HH

#include <memory>

#include "core/abs.hh"
#include "core/sg_filter.hh"
#include "core/tg_diffuser.hh"
#include "train/batcher.hh"

namespace cascade {

/** Adaptive dependency-aware batcher. */
class CascadeBatcher : public Batcher
{
  public:
    struct Options
    {
        /** Preset small batch size (the paper's 900, scaled). */
        size_t baseBatch = 100;
        /** SG-Filter on/off (off = Cascade-TB ablation). */
        bool enableSgFilter = true;
        /** θ_sim similarity threshold (§5.3 sweeps it). */
        double simThreshold = 0.9;
        /** Chunked preprocessing (Cascade_EX); 0 = single table. */
        size_t chunkSize = 0;
        /** ABS Max_r decay schedule (ablation hook). */
        DecaySchedule decaySchedule = DecaySchedule::Logarithmic;
        /** ABS Max_r initialization factor (ablation hook). */
        double maxrInitFactor = 2.0;
        uint64_t seed = 7;
    };

    /**
     * Runs the preprocessing stage (table build + endurance
     * profiling) immediately. `src` may be any EventSource — a
     * resident vector or an mmap'd event log (out-of-core training);
     * it must outlive the batcher.
     */
    CascadeBatcher(const EventSource &src, const TemporalAdjacency &adj,
                   size_t train_end, Options opts);

    std::string name() const override;
    void reset() override;
    size_t next(size_t st) override;
    void onBatchDone(const BatchFeedback &fb) override;
    double preprocessSeconds() const override;
    size_t stateBytes() const override;
    bool saveState(ByteWriter &w) const override;
    bool loadState(ByteReader &r) override;
    /** Rollback: halve the ABS Max_r ceiling before retrying. */
    void onNumericRollback() override;

    /** @name Component access (benchmarks and tests) */
    /** @{ */
    const TgDiffuser &diffuser() const { return *diffuser_; }
    const SgFilter &sgFilter() const { return *sgFilter_; }
    const AdaptiveBatchSensor &abs() const { return *abs_; }
    /** @} */

    /** Fraction of stable memory updates this epoch (Figure 5). */
    double
    stableUpdateRatio() const override
    {
        return sgFilter_->stableUpdateRatio();
    }

  private:
    Options opts_;
    std::unique_ptr<TgDiffuser> diffuser_;
    std::unique_ptr<SgFilter> sgFilter_;
    std::unique_ptr<AdaptiveBatchSensor> abs_;
    double profileSeconds_ = 0.0;
    std::vector<uint8_t> noStable_;
};

} // namespace cascade

#endif // CASCADE_CORE_CASCADE_BATCHER_HH
