/**
 * @file
 * Serve-path tests (src/serve/): reader answers must be byte-identical
 * to offline TgnnModel::embedNodes/scoreLinks on the same snapshot
 * state, concurrent readers must stay snapshot-consistent while the
 * single writer applies live windows (the TSan lane's target), and the
 * unix-socket front end must round-trip the protocol faithfully.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "graph/dataset.hh"
#include "serve/server.hh"
#include "tgnn/serialize.hh"

using namespace cascade;

namespace {

struct Fixture
{
    DatasetSpec spec;
    EventSequence data;
    VectorEventSource src;
    TemporalAdjacency adj;
    TgnnModel model;

    explicit Fixture(double scale = 400.0, uint64_t seed = 29,
                     const ModelConfig &config = tgnConfig(16))
        : spec(wikiSpec(scale)),
          data([&] {
              Rng rng(seed);
              return generateDataset(spec, rng);
          }()),
          src(data), adj(data),
          model(config, spec.numNodes, data.featDim(), seed + 1)
    {}
};

bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

/** A model with the engine's parameters holding `snap`'s state. */
TgnnModel
offlineReplica(const ServeEngine &engine, const ServeSnapshot &snap)
{
    const TgnnModel &m = engine.model();
    TgnnModel replica(m.config(), m.numNodes(), m.edgeFeatDim(),
                      m.seed());
    ByteWriter w;
    writeParametersBlob(w, m.parameters());
    ByteReader r(w.buffer());
    EXPECT_TRUE(readParametersBlob(r, replica.parameters()));
    replica.restoreState(snap.state);
    return replica;
}

std::vector<NodeId>
probeNodes(size_t n, size_t num_nodes, size_t salt)
{
    std::vector<NodeId> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back(
            static_cast<NodeId>((salt + i * 37 + 5) % num_nodes));
    return out;
}

} // namespace

TEST(Serve, ReaderMatchesOfflineComputeExactly)
{
    // TGN samples its most recent neighbors; DySAT and TGAT sample
    // uniformly, from an RNG seeded by the query alone; JODIE's time
    // projection reads lastUpdate and APAN's attention the mailbox.
    for (const ModelConfig &config : allModelConfigs(16)) {
        SCOPED_TRACE(config.name);
        Fixture f(400.0, 29, config);
        ServeEngine engine(f.model, f.src, f.adj, 0);
        engine.applyEvents(f.src.size() * 4 / 5, 64);
        const auto snap = engine.snapshot();
        ASSERT_GT(snap->appliedEvents, 0u);

        const std::vector<NodeId> nodes =
            probeNodes(6, f.spec.numNodes, 3);
        const std::vector<NodeId> dsts =
            probeNodes(6, f.spec.numNodes, 101);

        ServeReader reader(engine);
        const Tensor served_emb = reader.embed(nodes);
        const Tensor served_score = reader.scoreLinks(nodes, dsts);
        EXPECT_EQ(reader.syncedVersion(), snap->version);
        // The same query on the same snapshot answers the same bits.
        EXPECT_TRUE(bitEqual(reader.embed(nodes), served_emb));
        EXPECT_TRUE(bitEqual(reader.scoreLinks(nodes, dsts), served_score));

        TgnnModel offline = offlineReplica(engine, *snap);
        const EventIdx before =
            static_cast<EventIdx>(snap->appliedEvents);
        const Tensor off_emb = offline.embedNodes(nodes, snap->lastTs,
                                                  f.src, f.adj, before);
        const Tensor off_score = offline.scoreLinks(
            nodes, dsts, snap->lastTs, f.src, f.adj, before);

        // Byte-identical, not approximately equal: serving must add no
        // approximation over offline embedding compute.
        EXPECT_TRUE(bitEqual(served_emb, off_emb));
        EXPECT_TRUE(bitEqual(served_score, off_score));
    }
}

TEST(Serve, PinnedSnapshotQueryIgnoresTheLiveState)
{
    // The engine's model answers on a snapshot it has since moved past:
    // the answer must be the pinned state's, so no read in the query
    // path may go to the live memory, mailbox or lastUpdate.
    for (const ModelConfig &config : allModelConfigs(16)) {
        SCOPED_TRACE(config.name);
        Fixture f(400.0, 29, config);
        ServeEngine engine(f.model, f.src, f.adj, 0);
        engine.applyEvents(f.src.size() / 2, 64);
        const auto pinned = engine.snapshot();
        while (engine.pendingEvents() > 0)
            engine.applyEvents(64, 32);
        ASSERT_GT(engine.snapshot()->version, pinned->version);

        // Endpoints of events applied after the pin, whose live state
        // differs from the pinned one.
        std::vector<NodeId> nodes, dsts;
        for (size_t i = 0; i < 6; ++i) {
            const Event e = f.src.event(static_cast<EventIdx>(
                pinned->appliedEvents + i * 7));
            nodes.push_back(e.src);
            dsts.push_back(e.dst);
        }
        const EventIdx before =
            static_cast<EventIdx>(pinned->appliedEvents);
        const double ts = pinned->lastTs;
        const TgnnModel &model = engine.model();
        const Tensor emb =
            model.embedNodes(pinned->state, nodes, ts, f.src, f.adj, before);
        const Tensor score = model.scoreLinks(pinned->state, nodes, dsts, ts,
                                              f.src, f.adj, before);

        TgnnModel offline = offlineReplica(engine, *pinned);
        EXPECT_TRUE(bitEqual(
            emb, offline.embedNodes(nodes, ts, f.src, f.adj, before)));
        EXPECT_TRUE(bitEqual(score, offline.scoreLinks(nodes, dsts, ts,
                                                       f.src, f.adj,
                                                       before)));
        // The probe sees state that moved (TGAT's static memory never
        // does), so a read of the live state could not go unnoticed.
        if (config.memory != MemoryKind::Identity) {
            EXPECT_FALSE(bitEqual(
                emb, model.embedNodes(nodes, ts, f.src, f.adj, before)));
        }
    }
}

TEST(Serve, ApplyEventsBoundsHugeCountsWithoutWrapping)
{
    Fixture f;
    ServeEngine engine(f.model, f.src, f.adj, 0);
    ASSERT_EQ(engine.applyEvents(100, 64), 100u);
    constexpr size_t kMax = std::numeric_limits<size_t>::max();

    // A huge batch is one batch of what the window holds.
    EXPECT_EQ(engine.applyEvents(10, kMax), 10u);
    EXPECT_EQ(engine.appliedEvents(), 110u);

    // A huge window drains the stream in one publish.
    const uint64_t v = engine.snapshot()->version;
    EXPECT_EQ(engine.applyEvents(kMax, kMax), f.src.size() - 110);
    EXPECT_EQ(engine.pendingEvents(), 0u);
    EXPECT_EQ(engine.snapshot()->version, v + 1);

    // A drained stream applies and publishes nothing.
    EXPECT_EQ(engine.applyEvents(kMax, kMax), 0u);
    EXPECT_EQ(engine.snapshot()->version, v + 1);
}

TEST(Serve, ApplyingEventsAdvancesSnapshotsAndAnswers)
{
    Fixture f;
    ServeEngine engine(f.model, f.src, f.adj, 0);
    const size_t half = f.src.size() / 2;
    engine.applyEvents(half, 64);
    const uint64_t v1 = engine.snapshot()->version;

    ServeReader reader(engine);
    const std::vector<NodeId> nodes =
        probeNodes(4, f.spec.numNodes, 7);
    const Tensor before = reader.embed(nodes);

    // Drain the rest of the stream; a new snapshot must appear and
    // the reader must adopt it on its next query.
    EXPECT_GT(engine.applyEvents(f.src.size(), 64), 0u);
    EXPECT_EQ(engine.pendingEvents(), 0u);
    EXPECT_GT(engine.snapshot()->version, v1);

    const Tensor after = reader.embed(nodes);
    EXPECT_EQ(reader.syncedVersion(), engine.snapshot()->version);

    // And the post-drain answer again matches offline compute.
    const auto snap = engine.snapshot();
    TgnnModel offline = offlineReplica(engine, *snap);
    const Tensor off_after = offline.embedNodes(
        nodes, snap->lastTs, f.src, f.adj,
        static_cast<EventIdx>(snap->appliedEvents));
    EXPECT_TRUE(bitEqual(after, off_after));
}

TEST(Serve, ConcurrentReadersStaySnapshotConsistent)
{
    Fixture f;
    ServeEngine engine(f.model, f.src, f.adj, 0);
    engine.applyEvents(f.src.size() / 2, 64);

    // Writer thread applies the remaining suffix window by window
    // while reader threads query continuously. Each reader checks
    // that (a) versions it observes never go backwards and (b) every
    // answer is finite, and keeps each answer with the snapshot it
    // reports it was computed against; (c) after the join every answer
    // must match offline compute on that snapshot. The TSan lane turns
    // any torn snapshot access into a hard failure.
    constexpr size_t kReaders = 3;
    struct Answer
    {
        std::shared_ptr<const ServeSnapshot> snap;
        Tensor emb;
    };
    std::vector<std::vector<Answer>> answers(kReaders);
    std::atomic<bool> failed{false};
    std::thread writer([&] {
        while (engine.pendingEvents() > 0)
            engine.applyEvents(32, 32);
    });

    std::vector<std::thread> readers;
    for (size_t t = 0; t < kReaders; ++t) {
        readers.emplace_back([&, t] {
            ServeReader reader(engine);
            uint64_t last_version = 0;
            const std::vector<NodeId> nodes =
                probeNodes(4, f.spec.numNodes, t * 911);
            for (size_t q = 0; q < 40; ++q) {
                Tensor emb = reader.embed(nodes);
                const uint64_t v = reader.syncedVersion();
                if (v < last_version)
                    failed.store(true);
                last_version = v;
                for (size_t i = 0; i < emb.size(); ++i) {
                    if (!std::isfinite(emb.data()[i]))
                        failed.store(true);
                }
                answers[t].push_back({reader.current(), std::move(emb)});
            }
        });
    }
    writer.join();
    for (std::thread &th : readers)
        th.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(engine.pendingEvents(), 0u);

    TgnnModel offline = offlineReplica(engine, *engine.snapshot());
    for (size_t t = 0; t < kReaders; ++t) {
        const std::vector<NodeId> nodes =
            probeNodes(4, f.spec.numNodes, t * 911);
        for (const Answer &a : answers[t]) {
            offline.restoreState(a.snap->state);
            EXPECT_TRUE(bitEqual(
                a.emb, offline.embedNodes(
                           nodes, a.snap->lastTs, f.src, f.adj,
                           static_cast<EventIdx>(a.snap->appliedEvents))))
                << "reader " << t << " at version " << a.snap->version;
        }
    }

    // After the dust settles a fresh reader agrees with offline
    // compute at the final snapshot.
    ServeReader reader(engine);
    const std::vector<NodeId> nodes =
        probeNodes(4, f.spec.numNodes, 13);
    const Tensor served = reader.embed(nodes);
    const auto snap = engine.snapshot();
    offline.restoreState(snap->state);
    const Tensor off = offline.embedNodes(
        nodes, snap->lastTs, f.src, f.adj,
        static_cast<EventIdx>(snap->appliedEvents));
    EXPECT_TRUE(bitEqual(served, off));
}

TEST(Serve, SocketServerRoundTripsProtocol)
{
    Fixture f;
    ServeEngine engine(f.model, f.src, f.adj, 0);
    engine.applyEvents(f.src.size() * 4 / 5, 64);

    ServeServerOptions sopts;
    sopts.socketPath =
        std::string(::testing::TempDir()) + "serve_test.sock";
    sopts.readerThreads = 2;
    ServeSocketServer server(engine, sopts);
    ASSERT_TRUE(server.start());
    EXPECT_TRUE(server.running());

    ServeClient client;
    ASSERT_TRUE(client.connect(sopts.socketPath));

    ServeClient::Stats stats;
    ASSERT_TRUE(client.stats(stats));
    EXPECT_EQ(stats.version, engine.snapshot()->version);
    EXPECT_EQ(stats.appliedEvents, engine.appliedEvents());
    EXPECT_EQ(stats.pendingEvents, engine.pendingEvents());

    const std::vector<NodeId> nodes =
        probeNodes(5, f.spec.numNodes, 3);
    const std::vector<NodeId> dsts =
        probeNodes(5, f.spec.numNodes, 77);

    ServeClient::EmbedResult emb;
    ASSERT_TRUE(client.embed(nodes, emb));
    EXPECT_EQ(emb.version, engine.snapshot()->version);

    // The socket answer is the in-process answer, byte for byte.
    ServeReader reader(engine);
    const Tensor local_emb = reader.embed(nodes);
    ASSERT_EQ(emb.rows.size(), local_emb.size());
    ASSERT_EQ(emb.dim, local_emb.cols());
    EXPECT_EQ(std::memcmp(emb.rows.data(), local_emb.data(),
                          emb.rows.size() * sizeof(float)),
              0);

    ServeClient::ScoreResult score;
    ASSERT_TRUE(client.score(nodes, dsts, score));
    const Tensor local_score = reader.scoreLinks(nodes, dsts);
    ASSERT_EQ(score.logits.size(), local_score.size());
    EXPECT_EQ(std::memcmp(score.logits.data(), local_score.data(),
                          score.logits.size() * sizeof(float)),
              0);

    // Done with the first connection; free its reader thread.
    client.close();

    // Malformed input is refused without killing the server.
    ServeClient empty_client;
    ASSERT_TRUE(empty_client.connect(sopts.socketPath));
    ServeClient::EmbedResult bad;
    EXPECT_FALSE(empty_client.embed({}, bad));
    empty_client.close();

    // So are node ids past the model's node universe, on a connection
    // that keeps answering well-formed requests afterwards.
    const NodeId past_end =
        static_cast<NodeId>(engine.model().numNodes());
    ServeClient range_client;
    ASSERT_TRUE(range_client.connect(sopts.socketPath));
    EXPECT_FALSE(range_client.embed({nodes[0], past_end + 5}, bad));
    EXPECT_FALSE(range_client.embed({NodeId{1} << 40}, bad));
    ServeClient::ScoreResult bad_score;
    EXPECT_FALSE(range_client.score({past_end}, {nodes[0]}, bad_score));
    EXPECT_FALSE(range_client.score({nodes[0]}, {past_end}, bad_score));
    EXPECT_TRUE(range_client.connected());
    ServeClient::EmbedResult again;
    ASSERT_TRUE(range_client.embed(nodes, again));
    EXPECT_EQ(again.rows, emb.rows);
    range_client.close();

    // A second well-formed client still gets answers afterwards.
    ServeClient client2;
    ASSERT_TRUE(client2.connect(sopts.socketPath));
    ServeClient::Stats stats2;
    EXPECT_TRUE(client2.stats(stats2));

    EXPECT_GE(server.requestsServed(), 4u);
    EXPECT_TRUE(client2.shutdownServer());
    server.stop();
    EXPECT_FALSE(server.running());

    // A dead link fails the request too, and closes the client's end.
    EXPECT_FALSE(client2.stats(stats2));
    EXPECT_FALSE(client2.connected());
}

TEST(Serve, SocketServerStopReturnsAfterReadersRaceForAccept)
{
    // Every reader polls the one listen socket, so a connection wakes
    // them all and only one accept() wins. The losers must go back to
    // polling; a reader left blocked in accept() makes stop() wait
    // forever (the ctest TIMEOUT turns that hang into a failure).
    // Concurrent clients give the race more chances to happen.
    Fixture f;
    ServeEngine engine(f.model, f.src, f.adj, 0);
    engine.applyEvents(f.src.size() / 2, 64);

    ServeServerOptions sopts;
    sopts.socketPath =
        std::string(::testing::TempDir()) + "serve_stop_test.sock";
    sopts.readerThreads = 4;
    ServeSocketServer server(engine, sopts);
    ASSERT_TRUE(server.start());

    constexpr int kClients = 4;
    constexpr int kRounds = 25;
    std::atomic<int> answered{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&] {
            for (int round = 0; round < kRounds; ++round) {
                ServeClient client;
                ServeClient::Stats stats;
                if (client.connect(sopts.socketPath) &&
                    client.stats(stats))
                    answered.fetch_add(1);
                client.close();
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(answered.load(), kClients * kRounds);

    server.stop();
    EXPECT_FALSE(server.running());
}
