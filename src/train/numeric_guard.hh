/**
 * @file
 * Per-batch numeric health checks for the training loop.
 *
 * Long TGNN runs diverge in practice — a bad batch composition or an
 * over-aggressive Max_r can blow the loss or the gradient norm up, and
 * a single NaN poisons every parameter it touches from then on. The
 * NumericGuard inspects each step's loss and gradient norm *before*
 * the batch is allowed to count; on a trip the trainer rolls back to
 * the last good checkpoint, tightens the ABS Max_r ceiling
 * (Batcher::onNumericRollback) and replays. Retries are bounded: a
 * model that keeps diverging after repeated rollbacks fails loudly
 * instead of looping.
 */

#ifndef CASCADE_TRAIN_NUMERIC_GUARD_HH
#define CASCADE_TRAIN_NUMERIC_GUARD_HH

#include <cstddef>
#include <string>

namespace cascade {

/** Trip thresholds and retry budget. */
struct NumericGuardOptions
{
    bool enabled = true;
    /** Loss above this is treated as an explosion (BCE losses live
     *  well under 10; 1e4 only fires on genuine divergence). */
    double lossLimit = 1e4;
    /** Gradient L2 norm above this is treated as an explosion. */
    double gradNormLimit = 1e6;
    /** Consecutive rollbacks tolerated before giving up. */
    size_t maxRetries = 3;
};

/** Loss/gradient watchdog with bounded consecutive retries. */
class NumericGuard
{
  public:
    explicit NumericGuard(NumericGuardOptions opts = {}) : opts_(opts) {}

    /**
     * Check one training step. A passing step resets the consecutive
     * retry counter; a failing one records the trip and its reason.
     * @return true when the step's numbers are healthy
     */
    bool admit(double loss, double gradNorm);

    /** True when consecutive trips exceeded the retry budget. */
    bool exhausted() const { return consecutive_ > opts_.maxRetries; }

    /** Human-readable reason for the last trip. */
    const std::string &lastReason() const { return reason_; }

    /** Total trips since construction (healthy steps don't reset). */
    size_t trips() const { return trips_; }

  private:
    NumericGuardOptions opts_;
    size_t trips_ = 0;
    size_t consecutive_ = 0;
    std::string reason_;
};

} // namespace cascade

#endif // CASCADE_TRAIN_NUMERIC_GUARD_HH
