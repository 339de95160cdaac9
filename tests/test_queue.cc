/**
 * @file
 * AsyncCell semantics (util/queue.hh): the one-shot
 * launch/collect/drop lifecycle and exception propagation that the
 * TG-Diffuser prefetch and the session's background checkpoint write
 * both rely on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/queue.hh"

using namespace cascade;

namespace {

void
briefSleep()
{
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

} // namespace

TEST(AsyncCell, DropWhileProducerStillRunningJoinsBeforeReturning)
{
    // drop() on a producer that has not finished yet must *join* it,
    // not abandon it: the producer may reference stack state of the
    // dropper (the diffuser's prefetch closures capture the batcher
    // by reference). If drop() returned while the producer was still
    // running, `finished` would be observably false here.
    AsyncCell<int> cell;
    std::atomic<bool> release{false};
    std::atomic<bool> finished{false};
    cell.launch([&]() -> int {
        while (!release.load())
            std::this_thread::yield();
        finished = true;
        return 9;
    });
    EXPECT_TRUE(cell.active());

    std::thread releaser([&] {
        briefSleep();
        release = true;
    });
    cell.drop(); // producer is mid-flight; drop must wait it out
    EXPECT_TRUE(finished.load());
    EXPECT_FALSE(cell.active());
    releaser.join();

    // The cell is immediately reusable after a mid-flight drop.
    cell.launch([] { return 13; });
    EXPECT_EQ(cell.collect(), 13);
}

TEST(AsyncCell, TakeAfterDropStartsCleanNotStale)
{
    // A collect() on the cycle *after* a drop must deliver the fresh
    // producer's value, never the dropped one's — drop() has to clear
    // the value/error slots, not just join the thread.
    AsyncCell<int> cell;
    cell.launch([] { return 111; });
    cell.drop();
    cell.launch([] { return 222; });
    EXPECT_EQ(cell.collect(), 222);

    // Same for a dropped *exception*: it must not resurface on the
    // next cycle's collect.
    cell.launch([]() -> int { throw std::runtime_error("dropped"); });
    cell.drop();
    cell.launch([] { return 333; });
    EXPECT_EQ(cell.collect(), 333);
}

TEST(AsyncCell, CollectDeliversTheProducedValue)
{
    AsyncCell<int> cell;
    EXPECT_FALSE(cell.active());
    cell.launch([] { return 42; });
    EXPECT_TRUE(cell.active());
    EXPECT_EQ(cell.collect(), 42);
    EXPECT_FALSE(cell.active());
}

TEST(AsyncCell, CollectRethrowsTheProducerException)
{
    AsyncCell<int> cell;
    cell.launch([]() -> int {
        throw std::runtime_error("producer blew up");
    });
    try {
        cell.collect();
        FAIL() << "collect must rethrow the producer's exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "producer blew up");
    }
    EXPECT_FALSE(cell.active());
}

TEST(AsyncCell, DropDiscardsValueAndException)
{
    AsyncCell<int> cell;
    cell.launch([] { return 1; });
    cell.drop();
    EXPECT_FALSE(cell.active());

    // drop() swallows an exception outcome too — no deferred rethrow.
    cell.launch([]() -> int { throw std::runtime_error("discarded"); });
    cell.drop();
    EXPECT_FALSE(cell.active());

    // The cell is reusable after either outcome.
    cell.launch([] { return 5; });
    EXPECT_EQ(cell.collect(), 5);
}

TEST(AsyncCell, ReusableAcrossLaunchCollectCycles)
{
    AsyncCell<std::vector<int>> cell;
    for (int round = 0; round < 3; ++round) {
        cell.launch([round] {
            return std::vector<int>{round, round + 1};
        });
        const std::vector<int> got = cell.collect();
        ASSERT_EQ(got.size(), 2u);
        EXPECT_EQ(got[0], round);
        EXPECT_EQ(got[1], round + 1);
    }
}
