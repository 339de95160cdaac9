#include "train/supervisor.hh"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace cascade {

double
RetryPolicy::delayMs(size_t retryIndex) const
{
    double delay = std::min(options_.baseDelayMs, kMaxDelayMs);
    for (size_t i = 0; i < retryIndex && delay < kMaxDelayMs; ++i)
        delay = std::min(delay * 2.0, kMaxDelayMs);
    return delay;
}

Supervisor::Supervisor(const RetryOptions &options,
                       obs::MetricsRegistry &metrics,
                       obs::TraceRecorder *trace)
    : retry_(options), metrics_(metrics), trace_(trace),
      sleeper_([](double ms) {
          if (ms > 0.0) {
              std::this_thread::sleep_for(
                  std::chrono::duration<double, std::milli>(ms));
          }
      })
{}

void
Supervisor::setSleeper(std::function<void(double)> sleeper)
{
    if (sleeper)
        sleeper_ = std::move(sleeper);
}

bool
Supervisor::runSupervised(const std::string &stage,
                          const std::function<bool()> &op)
{
    const size_t max_retries = retry_.maxRetries();
    for (size_t attempt = 0;; ++attempt) {
        bool ok = false;
        std::string error = "operation reported failure";
        try {
            ok = op();
        } catch (const std::exception &e) {
            error = e.what();
        } catch (...) {
            error = "non-standard exception";
        }
        if (ok)
            return true;
        metrics_.counter(stage + ".failures").add(1);
        if (attempt >= max_retries) {
            CASCADE_LOG("stage %s failed after %zu attempt(s): %s",
                        stage.c_str(), attempt + 1, error.c_str());
            return false;
        }
        const double delay = retry_.delayMs(attempt);
        metrics_.counter(stage + ".retries").add(1);
        CASCADE_LOG("stage %s failed (%s); retry %zu/%zu in %.1f ms",
                    stage.c_str(), error.c_str(), attempt + 1,
                    max_retries, delay);
        if (trace_) {
            auto span = trace_->span(stage + "-retry-wait",
                                     "supervisor");
            sleeper_(delay);
            span.end();
        } else {
            sleeper_(delay);
        }
    }
}

} // namespace cascade
