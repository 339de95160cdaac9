/**
 * @file
 * Supervised execution: the checkpoint-write retry.
 *
 * A checkpoint write is the one training stage that fails for a
 * reason outside the program (a full or refusing disk), so it is the
 * one stage the TrainingSession runs under a Supervisor:
 *
 *   RetryPolicy    — an unjittered backoff schedule: baseDelayMs, doubled
 *                    per retry, capped at kMaxDelayMs. Two runs with
 *                    the same options and the same fault plan retry at
 *                    the same attempts with the same delays, so
 *                    resilience tests can assert exact counters.
 *   Supervisor     — wraps an operation in a catch/retry loop
 *                    (`runSupervised`) and reports whether it finally
 *                    succeeded; the session decides what an exhausted
 *                    budget means (checkpointing disabled).
 *
 * Retries record into the session's MetricsRegistry (per-stage
 * `<stage>.retries` / `<stage>.failures`) and, when a TraceRecorder
 * is attached, each backoff wait emits a `<stage>-retry-wait` span.
 *
 * The Supervisor holds no mutable state, so cadence writes may run it
 * on the background writer thread while the final write runs it on
 * the training thread.
 */

#ifndef CASCADE_TRAIN_SUPERVISOR_HH
#define CASCADE_TRAIN_SUPERVISOR_HH

#include <cstddef>
#include <functional>
#include <string>

namespace cascade {

namespace obs {
class MetricsRegistry;
class TraceRecorder;
}

/** Retry budget and the first backoff delay. */
struct RetryOptions
{
    /** Retries after the first attempt; 0 = fail fast. */
    size_t maxRetries = 3;
    /** Delay before the first retry. */
    double baseDelayMs = 10.0;
};

/** Exponential backoff: delayMs(k) = min(base * 2^k, kMaxDelayMs). */
class RetryPolicy
{
  public:
    /** Backoff ceiling, ms. */
    static constexpr double kMaxDelayMs = 2000.0;

    explicit RetryPolicy(const RetryOptions &options) : options_(options)
    {}

    size_t maxRetries() const { return options_.maxRetries; }

    /** Backoff before retry `retryIndex` (0-based). */
    double delayMs(size_t retryIndex) const;

  private:
    RetryOptions options_;
};

/** Catch/retry with the backoff schedule above. */
class Supervisor
{
  public:
    /**
     * @param metrics registry receiving the retry/failure counters
     * @param trace   optional; each backoff wait emits a span
     */
    Supervisor(const RetryOptions &options, obs::MetricsRegistry &metrics,
               obs::TraceRecorder *trace = nullptr);

    Supervisor(const Supervisor &) = delete;
    Supervisor &operator=(const Supervisor &) = delete;

    /**
     * Replace the backoff sleep (default: std::this_thread sleep).
     * Tests pass a no-op so retry storms don't serialize on real
     * waits; retry *decisions* stay identical either way.
     */
    void setSleeper(std::function<void(double)> sleeper);

    /**
     * Run `op` under the retry policy. `op` reports failure by
     * returning false or throwing; both count into
     * `<stage>.failures`. After each failure short of the budget the
     * supervisor backs off (`<stage>.retries`) and reruns. @return true once `op` succeeds; false (after
     * logging the last error) when the retry budget is exhausted.
     */
    bool runSupervised(const std::string &stage,
                       const std::function<bool()> &op);

  private:
    RetryPolicy retry_;
    obs::MetricsRegistry &metrics_;
    obs::TraceRecorder *trace_;
    std::function<void(double)> sleeper_;
};

} // namespace cascade

#endif // CASCADE_TRAIN_SUPERVISOR_HH
