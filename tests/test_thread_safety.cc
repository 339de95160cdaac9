/**
 * @file
 * Cross-thread overlap regression tests — the live ammunition for the
 * `tsan` preset (DESIGN.md "Static analysis & concurrency contracts").
 *
 * Each test provokes *real* concurrent access to one of the
 * lock-protected structures: the MetricsRegistry instrument
 * directories, per-histogram aggregation state, and the ThreadPool's
 * inflight/error slots.
 * Under the default preset they are plain correctness checks; under
 * `cmake --preset tsan && ctest --preset tsan` ThreadSanitizer turns
 * any missing synchronization into a hard failure, which is how CI
 * knows the TSan lane is actually exercising contention and not just
 * rebuilding the tree.
 *
 * None of these tests touch model numerics: the golden-trajectory
 * guarantee is out of scope here and covered by
 * test_golden_trajectory.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "util/parallel.hh"

namespace cascade {
namespace {

/** Spin-barrier so every thread hits the contended section together
 *  (sleeping threads make races vanish; spinning maximizes overlap). */
class SpinBarrier
{
  public:
    explicit SpinBarrier(int n) : waiting_(n) {}
    void arriveAndWait()
    {
        waiting_.fetch_sub(1, std::memory_order_acq_rel);
        while (waiting_.load(std::memory_order_acquire) > 0) {
        }
    }

  private:
    std::atomic<int> waiting_;
};

TEST(ThreadSafety, ConcurrentRegistryInstrumentCreation)
{
    // All threads race to create/fetch the same instruments plus some
    // private ones; the registry hands out stable references and the
    // shared counter must see every add exactly once.
    constexpr int kThreads = 8;
    constexpr int kAddsPerThread = 1000;
    obs::MetricsRegistry registry;
    SpinBarrier barrier(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry, &barrier, t] {
            barrier.arriveAndWait();
            obs::Counter &shared =
                registry.counter("threadsafety.shared_hits");
            obs::Counter &mine = registry.counter(
                "threadsafety.private_" + std::to_string(t));
            for (int i = 0; i < kAddsPerThread; ++i) {
                shared.add(1);
                mine.add(1);
                // Re-resolving by name mid-write stresses the
                // directory lock against concurrent inserts.
                registry.gauge("threadsafety.gauge").set(double(i));
            }
        });
    }
    for (auto &th : threads)
        th.join();
    const obs::Counter *shared =
        registry.findCounter("threadsafety.shared_hits");
    ASSERT_NE(shared, nullptr);
    EXPECT_EQ(shared->value(),
              uint64_t(kThreads) * uint64_t(kAddsPerThread));
    for (int t = 0; t < kThreads; ++t) {
        const obs::Counter *mine = registry.findCounter(
            "threadsafety.private_" + std::to_string(t));
        ASSERT_NE(mine, nullptr);
        EXPECT_EQ(mine->value(), uint64_t(kAddsPerThread));
    }
}

TEST(ThreadSafety, ConcurrentHistogramWritesAndReads)
{
    // Writers hammer record() while a reader thread polls the locked
    // aggregates — the mutex-per-instrument design must keep count and
    // sum coherent (a torn read of sum_ is exactly what TSan and the
    // final exact-count assertion both catch).
    constexpr int kWriters = 6;
    constexpr int kRecordsPerWriter = 2000;
    obs::MetricsRegistry registry;
    obs::Histogram &h = registry.histogram("threadsafety.latency_ms");
    SpinBarrier barrier(kWriters + 1);
    std::atomic<bool> done{false};
    std::thread reader([&h, &barrier, &done] {
        barrier.arriveAndWait();
        while (!done.load(std::memory_order_acquire)) {
            (void)h.count();
            (void)h.mean();
            (void)h.buckets();
        }
    });
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int t = 0; t < kWriters; ++t) {
        writers.emplace_back([&h, &barrier] {
            barrier.arriveAndWait();
            for (int i = 0; i < kRecordsPerWriter; ++i)
                h.record(double(i % 97));
        });
    }
    for (auto &th : writers)
        th.join();
    done.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(h.count(),
              uint64_t(kWriters) * uint64_t(kRecordsPerWriter));
}

TEST(ThreadSafety, ThreadPoolSubmitDuringWait)
{
    // One thread blocks in wait() while others keep submitting: the
    // inflight count, the task queue, and the CV handshake all stay on
    // one lock, so this must drain without deadlock or a lost task.
    ThreadPool pool(4);
    constexpr int kSubmitters = 4;
    constexpr int kTasksEach = 250;
    std::atomic<int> executed{0};
    SpinBarrier barrier(kSubmitters + 1);
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&pool, &executed, &barrier] {
            barrier.arriveAndWait();
            for (int i = 0; i < kTasksEach; ++i)
                pool.submit([&executed] {
                    executed.fetch_add(1, std::memory_order_relaxed);
                });
        });
    }
    barrier.arriveAndWait();
    // wait() overlaps the submit storm; repeat until every submitter
    // has finished so the final wait covers the full task set.
    pool.wait();
    for (auto &th : submitters)
        th.join();
    pool.wait();
    EXPECT_EQ(executed.load(), kSubmitters * kTasksEach);
}

TEST(ThreadSafety, ThreadPoolErrorSlotPublication)
{
    // Regression for the PR-5 fix: the worker publishes a captured
    // exception and decrements inflight_ in ONE critical section, so a
    // wait() that observes inflight_ == 0 always observes the error
    // too. Before the fix the two updates were separate sections and
    // a wait() could slip between them, returning success while the
    // exception was still in flight.
    ThreadPool pool(2);
    for (int round = 0; round < 200; ++round) {
        pool.submit([] { throw std::runtime_error("task failure"); });
        EXPECT_THROW(pool.wait(), std::runtime_error)
            << "round " << round
            << ": wait() returned before the captured exception was "
               "published";
    }
    // The slot resets after each rethrow: a clean round must not see
    // a stale error.
    pool.submit([] {});
    EXPECT_NO_THROW(pool.wait());
}

TEST(ThreadSafety, ConcurrentMetricWritesDuringPipelinedWork)
{
    // The cross-thread-overlap canary the TSan CI lane requires: a
    // parallelFor over the global pool (the pipelined-epoch execution
    // shape) with every body iteration writing shared metrics, while
    // the "training thread" polls snapshots — metrics flow from
    // worker threads exactly as in a pipelined epoch.
    auto pool = ThreadPool::globalShared();
    obs::MetricsRegistry registry;
    obs::Counter &events = registry.counter("pipeline.events");
    obs::Histogram &lat = registry.histogram("pipeline.chunk_ms");
    constexpr size_t kItems = 20000;
    std::atomic<bool> done{false};
    std::thread poller([&registry, &done] {
        while (!done.load(std::memory_order_acquire))
            (void)registry.snapshot();
    });
    parallelFor(0, kItems, [&](size_t i) {
        events.add(1);
        lat.record(double(i % 31));
    });
    done.store(true, std::memory_order_release);
    poller.join();
    EXPECT_EQ(events.value(), kItems);
    EXPECT_EQ(lat.count(), kItems);
}

} // namespace
} // namespace cascade
