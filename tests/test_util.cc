/**
 * @file
 * Tests for the util substrate: RNG determinism and distribution
 * sanity, thread-pool/parallelFor correctness, env parsing, timers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/env.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/timer.hh"

using namespace cascade;

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, UniformIntRangeAndCoverage)
{
    Rng rng(9);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const uint64_t v = rng.uniformInt(7);
        ASSERT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ZipfIsSkewed)
{
    Rng rng(13);
    const uint64_t n = 1000;
    size_t low = 0, total = 20000;
    for (size_t i = 0; i < total; ++i) {
        if (rng.zipf(n, 1.0) < n / 10)
            ++low;
    }
    // With alpha=1 the first decile draws far more than 10% of mass.
    EXPECT_GT(static_cast<double>(low) / total, 0.4);
}

TEST(Rng, ZipfZeroAlphaIsUniform)
{
    Rng rng(17);
    size_t low = 0, total = 20000;
    for (size_t i = 0; i < total; ++i) {
        if (rng.zipf(1000, 0.0) < 100)
            ++low;
    }
    EXPECT_NEAR(static_cast<double>(low) / total, 0.1, 0.02);
}

TEST(Rng, ZipfStaysInRange)
{
    Rng rng(19);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.zipf(17, 1.2), 17u);
}

TEST(Rng, ExponentialIsPositiveWithMeanInverseRate)
{
    Rng rng(23);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double e = rng.exponential(4.0);
        ASSERT_GT(e, 0.0);
        sum += e;
    }
    EXPECT_NEAR(sum / n, 0.25, 0.02);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(29);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(10000);
    parallelFor(0, hits.size(),
                [&](size_t i) { hits[i].fetch_add(1); }, 16);
    for (const auto &h : hits)
        ASSERT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndSingletonRanges)
{
    std::atomic<int> count{0};
    parallelFor(5, 5, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 0);
    parallelFor(5, 6, [&](size_t i) {
        EXPECT_EQ(i, 5u);
        count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForChunks, PartitionsTheRange)
{
    std::mutex m;
    std::vector<std::pair<size_t, size_t>> chunks;
    parallelForChunks(0, 5000, [&](size_t lo, size_t hi) {
        std::lock_guard<std::mutex> lock(m);
        chunks.emplace_back(lo, hi);
    }, 64);
    std::sort(chunks.begin(), chunks.end());
    size_t expect = 0;
    for (auto [lo, hi] : chunks) {
        ASSERT_EQ(lo, expect);
        ASSERT_GT(hi, lo);
        expect = hi;
    }
    EXPECT_EQ(expect, 5000u);
}

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&] { count.fetch_add(1); });
    pool.wait();
    pool.submit([&] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, SetGlobalThreadsAfterLazyStartIsSafe)
{
    // Start the lazy global pool by running work through it.
    std::atomic<int> count{0};
    parallelFor(0, 4096, [&](size_t) { count.fetch_add(1); }, 16);
    EXPECT_EQ(count.load(), 4096);

    // Resize after the pool has already served callers; subsequent
    // lookups must observe the new size and still run work.
    ThreadPool::setGlobalThreads(2);
    EXPECT_EQ(ThreadPool::global().threads(), 2u);
    count = 0;
    parallelFor(0, 4096, [&](size_t) { count.fetch_add(1); }, 16);
    EXPECT_EQ(count.load(), 4096);

    ThreadPool::setGlobalThreads(0); // restore the default
}

TEST(ThreadPool, ResizeDoesNotDestroyAPinnedPool)
{
    ThreadPool::setGlobalThreads(3);
    // Pin the current pool the way parallelForChunks does, then yank
    // the global handle out from under it: the pinned pool must keep
    // executing and draining submitted work.
    std::shared_ptr<ThreadPool> pinned = ThreadPool::globalShared();
    EXPECT_EQ(pinned->threads(), 3u);

    ThreadPool::setGlobalThreads(1);
    std::atomic<int> count{0};
    for (int i = 0; i < 64; ++i)
        pinned->submit([&] { count.fetch_add(1); });
    pinned->wait();
    EXPECT_EQ(count.load(), 64);

    // The replacement pool is created lazily with the new size.
    EXPECT_EQ(ThreadPool::global().threads(), 1u);
    ThreadPool::setGlobalThreads(0); // restore the default
}

TEST(ParallelFor, BodyExceptionReachesCaller)
{
    // Force the pooled path even on single-core machines.
    ThreadPool::setGlobalThreads(4);
    std::atomic<int> ran{0};
    bool caught = false;
    try {
        parallelFor(0, 10000, [&](size_t i) {
            ran.fetch_add(1);
            if (i == 1234)
                throw std::runtime_error("boom at 1234");
        }, 16);
    } catch (const std::runtime_error &e) {
        caught = true;
        EXPECT_STREQ(e.what(), "boom at 1234");
    }
    EXPECT_TRUE(caught);
    // Chunks other than the throwing one ran to completion.
    EXPECT_GT(ran.load(), 1);

    // The pool survives and serves later calls normally.
    std::atomic<int> count{0};
    parallelFor(0, 1000, [&](size_t) { count.fetch_add(1); }, 16);
    EXPECT_EQ(count.load(), 1000);
    ThreadPool::setGlobalThreads(0); // restore the default
}

TEST(ParallelFor, SerialSmallRangePathAlsoPropagates)
{
    // A range below the grain runs inline; the exception must look
    // the same to the caller as the pooled path's.
    EXPECT_THROW(
        parallelFor(0, 4, [](size_t) {
            throw std::runtime_error("serial boom");
        }, 256),
        std::runtime_error);
}

TEST(ParallelForChunks, BodyExceptionReachesCaller)
{
    ThreadPool::setGlobalThreads(4);
    EXPECT_THROW(
        parallelForChunks(0, 10000, [](size_t lo, size_t) {
            if (lo == 0)
                throw std::runtime_error("chunk boom");
        }, 16),
        std::runtime_error);
    ThreadPool::setGlobalThreads(0);
}

TEST(ThreadPool, ThrowingTaskRethrowsAtWaitAndPoolStaysUsable)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([] { throw std::logic_error("task failed"); });
    for (int i = 0; i < 16; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    EXPECT_THROW(pool.wait(), std::logic_error);
    // The non-throwing tasks were not abandoned.
    EXPECT_EQ(ran.load(), 16);
    // The error was consumed: a second wait is clean and the pool
    // keeps executing new work.
    pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 17);
}

TEST(Env, StrictLongParsing)
{
    long v = 0;
    EXPECT_TRUE(parseLongStrict("42", v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseLongStrict("-7", v));
    EXPECT_EQ(v, -7);
    EXPECT_FALSE(parseLongStrict("", v));
    EXPECT_FALSE(parseLongStrict("12x", v));
    EXPECT_FALSE(parseLongStrict("x12", v));
    EXPECT_FALSE(parseLongStrict(" 12", v));
    EXPECT_FALSE(parseLongStrict("1.5", v));
}

TEST(Env, StrictDoubleParsing)
{
    double v = 0.0;
    EXPECT_TRUE(parseDoubleStrict("2.5", v));
    EXPECT_DOUBLE_EQ(v, 2.5);
    EXPECT_TRUE(parseDoubleStrict("-1e3", v));
    EXPECT_DOUBLE_EQ(v, -1000.0);
    EXPECT_FALSE(parseDoubleStrict("", v));
    EXPECT_FALSE(parseDoubleStrict("2.5ms", v));
    EXPECT_FALSE(parseDoubleStrict(" 2.5", v));
    EXPECT_FALSE(parseDoubleStrict("abc", v));
}

TEST(Env, ParsesAndDefaults)
{
    ::setenv("CASCADE_TEST_D", "2.5", 1);
    ::setenv("CASCADE_TEST_L", "42", 1);
    ::setenv("CASCADE_TEST_S", "hello", 1);
    EXPECT_DOUBLE_EQ(envDouble("CASCADE_TEST_D", 1.0), 2.5);
    EXPECT_EQ(envLong("CASCADE_TEST_L", 1), 42);
    EXPECT_EQ(envString("CASCADE_TEST_S", "x"), "hello");
    EXPECT_DOUBLE_EQ(envDouble("CASCADE_TEST_MISSING", 1.5), 1.5);
    EXPECT_EQ(envLong("CASCADE_TEST_MISSING", 3), 3);
    EXPECT_EQ(envString("CASCADE_TEST_MISSING", "dflt"), "dflt");
}

TEST(Timer, MeasuresElapsedTime)
{
    Timer t;
    volatile double x = 0.0;
    for (int i = 0; i < 100000; ++i)
        x = x + i;
    EXPECT_GE(t.seconds(), 0.0);
    const double first = t.milliseconds();
    EXPECT_LE(first, t.milliseconds()); // monotone
    t.reset();
    EXPECT_LT(t.milliseconds(), first + 1000.0);
}

TEST(Accumulator, SumsIntervals)
{
    Accumulator acc;
    acc.add(0.5);
    acc.add(0.25);
    EXPECT_DOUBLE_EQ(acc.seconds(), 0.75);
    EXPECT_EQ(acc.count(), 2);
    acc.reset();
    EXPECT_DOUBLE_EQ(acc.seconds(), 0.0);
    EXPECT_EQ(acc.count(), 0);
}

TEST(TimerGuard, AddsOnDestruction)
{
    Accumulator acc;
    {
        TimerGuard g(acc);
    }
    EXPECT_EQ(acc.count(), 1);
    EXPECT_GE(acc.seconds(), 0.0);
}
