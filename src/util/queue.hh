/**
 * @file
 * AsyncCell<T>, the one background-thread primitive: the TG-Diffuser's
 * chunk-table prefetch (Cascade_EX) and the TrainingSession's
 * background checkpoint write (DESIGN.md §12) both run on it. Built on
 * the annotated mutex shims, so the `analyze` preset checks every
 * access and the TSan lane sees real std::mutex operations.
 */

#ifndef CASCADE_UTIL_QUEUE_HH
#define CASCADE_UTIL_QUEUE_HH

#include <exception>
#include <thread>
#include <utility>

#include "util/logging.hh"
#include "util/thread_annotations.hh"

namespace cascade {

/**
 * One-shot asynchronous slot: launch a producer thread now, collect
 * its value (or exception) later. Replaces the TG-Diffuser's ad-hoc
 * std::async future so chunk prefetch and the session's checkpoint
 * write share one audited concurrency primitive.
 *
 * Lifecycle: launch() → active() → collect() (or drop()). collect()
 * joins the producer and rethrows anything it threw; drop() joins and
 * discards both value and exception (used when the consumer no longer
 * wants the result — destruction).
 */
template <typename T>
class AsyncCell
{
  public:
    AsyncCell() = default;
    ~AsyncCell() { drop(); }

    AsyncCell(const AsyncCell &) = delete;
    AsyncCell &operator=(const AsyncCell &) = delete;

    /** A producer has been launched and not yet collected/dropped. */
    bool active() const { return worker_.joinable(); }

    /** Spawn `fn` on a dedicated thread. Must not already be active. */
    template <typename Fn>
    void
    launch(Fn &&fn)
    {
        CASCADE_CHECK(!active(), "AsyncCell relaunched while active");
        {
            LockGuard lock(m_);
            hasValue_ = false;
            error_ = nullptr;
        }
        worker_ = std::thread([this, fn = std::forward<Fn>(fn)]() mutable {
            T produced{};
            std::exception_ptr err;
            try {
                produced = fn();
            } catch (...) {
                err = std::current_exception();
            }
            LockGuard lock(m_);
            value_ = std::move(produced);
            error_ = err;
            hasValue_ = (err == nullptr);
        });
    }

    /** Join the producer and take its value; rethrows its exception. */
    T
    collect()
    {
        CASCADE_CHECK(active(), "AsyncCell::collect with nothing launched");
        worker_.join();
        LockGuard lock(m_);
        if (error_) {
            std::exception_ptr err = error_;
            error_ = nullptr;
            std::rethrow_exception(err);
        }
        CASCADE_CHECK(hasValue_, "AsyncCell joined without a value");
        hasValue_ = false;
        return std::move(value_);
    }

    /** Join the producer and discard value and exception alike. */
    void
    drop()
    {
        if (!active())
            return;
        worker_.join();
        LockGuard lock(m_);
        hasValue_ = false;
        error_ = nullptr;
    }

  private:
    std::thread worker_;
    mutable AnnotatedMutex m_;
    T value_ CASCADE_GUARDED_BY(m_){};
    bool hasValue_ CASCADE_GUARDED_BY(m_) = false;
    std::exception_ptr error_ CASCADE_GUARDED_BY(m_);
};

} // namespace cascade

#endif // CASCADE_UTIL_QUEUE_HH
