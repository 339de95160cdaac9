/**
 * @file
 * MemoryStore and Mailbox tests: gather/write round trips, cosine
 * reporting, timestamp stamping, mailbox ring eviction, the
 * most-recent-first gather layout with padding masks. Their checkpoint
 * round trip is tested at the model level (test_model.cc).
 */

#include <gtest/gtest.h>

#include "tgnn/mailbox.hh"
#include "tgnn/memory.hh"

using namespace cascade;

TEST(MemoryStore, StartsZeroed)
{
    MemoryStore m(4, 3);
    EXPECT_EQ(m.numNodes(), 4u);
    EXPECT_EQ(m.dim(), 3u);
    Tensor g = m.gather({0, 3});
    EXPECT_FLOAT_EQ(g.maxAbs(), 0.0f);
    EXPECT_DOUBLE_EQ(m.lastUpdate(2), 0.0);
}

TEST(MemoryStore, WriteGatherRoundTrip)
{
    MemoryStore m(4, 2);
    Tensor vals(2, 2, {1, 2, 3, 4});
    m.write({1, 3}, vals, 5.0);
    Tensor g = m.gather({3, 1});
    EXPECT_FLOAT_EQ(g.at(0, 0), 3.0f);
    EXPECT_FLOAT_EQ(g.at(0, 1), 4.0f);
    EXPECT_FLOAT_EQ(g.at(1, 0), 1.0f);
    EXPECT_DOUBLE_EQ(m.lastUpdate(1), 5.0);
    EXPECT_DOUBLE_EQ(m.lastUpdate(0), 0.0);
}

TEST(MemoryStore, WriteReturnsCosineSimilarities)
{
    MemoryStore m(2, 2);
    Tensor first(1, 2, {1, 0});
    auto cos0 = m.write({0}, first, 1.0);
    // Zero -> nonzero: similarity 0 (maximal change).
    EXPECT_DOUBLE_EQ(cos0[0], 0.0);

    Tensor scaled(1, 2, {5, 0});
    auto cos1 = m.write({0}, scaled, 2.0);
    EXPECT_NEAR(cos1[0], 1.0, 1e-6); // same direction: stable

    Tensor rotated(1, 2, {0, 1});
    auto cos2 = m.write({0}, rotated, 3.0);
    EXPECT_NEAR(cos2[0], 0.0, 1e-6); // orthogonal: unstable
}

TEST(MemoryStore, GatherDeltaT)
{
    MemoryStore m(3, 2);
    m.write({1}, Tensor::ones(1, 2), 4.0);
    Tensor dt = m.gatherDeltaT({0, 1}, 10.0);
    EXPECT_FLOAT_EQ(dt.at(0, 0), 10.0f);
    EXPECT_FLOAT_EQ(dt.at(1, 0), 6.0f);
}

TEST(MemoryStore, TouchAndReset)
{
    MemoryStore m(2, 2);
    m.touch(0, 7.5);
    EXPECT_DOUBLE_EQ(m.lastUpdate(0), 7.5);
    m.write({1}, Tensor::ones(1, 2), 1.0);
    m.reset();
    EXPECT_DOUBLE_EQ(m.lastUpdate(0), 0.0);
    EXPECT_FLOAT_EQ(m.gather({1}).maxAbs(), 0.0f);
}

TEST(MemoryStore, InitRandomIsDeterministic)
{
    MemoryStore a(8, 4), b(8, 4);
    Rng r1(3), r2(3);
    a.initRandom(r1, 0.1f);
    b.initRandom(r2, 0.1f);
    Tensor ga = a.gather({0, 5}), gb = b.gather({0, 5});
    for (size_t i = 0; i < ga.size(); ++i)
        EXPECT_FLOAT_EQ(ga.data()[i], gb.data()[i]);
    EXPECT_GT(ga.maxAbs(), 0.0f);
}

TEST(MemoryStore, BytesAccounting)
{
    MemoryStore m(100, 32);
    EXPECT_EQ(m.bytes(), 100 * 32 * sizeof(float) +
                             100 * sizeof(double));
}

TEST(Mailbox, EmptyGatherIsZeroPadded)
{
    Mailbox mb(10, 3, 4);
    EXPECT_FALSE(mb.hasMessages(7));
    auto g = mb.gather({7, 8}, 10.0);
    EXPECT_EQ(g.payloads.rows(), 6u);
    EXPECT_FLOAT_EQ(g.payloads.maxAbs(), 0.0f);
    for (float v : g.valid)
        EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Mailbox, MostRecentFirstOrdering)
{
    Mailbox mb(1, 3, 1);
    float p;
    p = 1.0f; mb.push(0, &p, 1.0);
    p = 2.0f; mb.push(0, &p, 2.0);
    auto g = mb.gather({0}, 10.0);
    EXPECT_FLOAT_EQ(g.payloads.at(0, 0), 2.0f); // newest first
    EXPECT_FLOAT_EQ(g.payloads.at(1, 0), 1.0f);
    EXPECT_FLOAT_EQ(g.valid[0], 1.0f);
    EXPECT_FLOAT_EQ(g.valid[1], 1.0f);
    EXPECT_FLOAT_EQ(g.valid[2], 0.0f); // padding slot
    EXPECT_FLOAT_EQ(g.dt.at(0, 0), 8.0f);
    EXPECT_FLOAT_EQ(g.dt.at(1, 0), 9.0f);
}

TEST(Mailbox, RingEvictsOldest)
{
    Mailbox mb(4, 2, 1);
    for (int i = 1; i <= 5; ++i) {
        float p = static_cast<float>(i);
        mb.push(3, &p, static_cast<double>(i));
    }
    auto g = mb.gather({3}, 10.0);
    EXPECT_FLOAT_EQ(g.payloads.at(0, 0), 5.0f);
    EXPECT_FLOAT_EQ(g.payloads.at(1, 0), 4.0f);
}

TEST(Mailbox, SingleSlotOverwrites)
{
    Mailbox mb(1, 1, 2);
    float a[2] = {1, 1}, b[2] = {2, 2};
    mb.push(0, a, 1.0);
    mb.push(0, b, 2.0);
    auto g = mb.gather({0}, 3.0);
    EXPECT_FLOAT_EQ(g.payloads.at(0, 0), 2.0f);
    EXPECT_FLOAT_EQ(g.dt.at(0, 0), 1.0f);
}

TEST(Mailbox, PerNodeIsolation)
{
    Mailbox mb(3, 2, 1);
    float p = 9.0f;
    mb.push(1, &p, 1.0);
    EXPECT_TRUE(mb.hasMessages(1));
    EXPECT_FALSE(mb.hasMessages(2));
    auto g = mb.gather({2}, 5.0);
    EXPECT_FLOAT_EQ(g.payloads.maxAbs(), 0.0f);
}

TEST(Mailbox, ResetDropsEverything)
{
    Mailbox mb(2, 2, 1);
    float p = 1.0f;
    mb.push(0, &p, 1.0);
    mb.push(1, &p, 2.0);
    mb.push(1, &p, 3.0);
    mb.reset();
    EXPECT_FALSE(mb.hasMessages(0));
    EXPECT_FALSE(mb.hasMessages(1));
    auto g = mb.gather({0, 1}, 4.0);
    EXPECT_FLOAT_EQ(g.payloads.maxAbs(), 0.0f);
    EXPECT_FLOAT_EQ(g.dt.maxAbs(), 0.0f);
    for (float v : g.valid)
        EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Mailbox, CloneIsIndependent)
{
    Mailbox mb(1, 1, 1);
    float p = 1.0f;
    mb.push(0, &p, 1.0);
    Mailbox copy(mb);
    p = 2.0f;
    mb.push(0, &p, 2.0);
    auto g = copy.gather({0}, 3.0);
    EXPECT_FLOAT_EQ(g.payloads.at(0, 0), 1.0f);
}

TEST(MailboxDeath, PushOutOfRangeNodeDies)
{
    Mailbox mb(3, 1, 1);
    const float p = 1.0f;
    EXPECT_DEATH(mb.push(3, &p, 1.0), "out of range");
}
