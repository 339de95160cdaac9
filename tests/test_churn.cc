/**
 * @file
 * Node-classification (churn) tests: label derivation from the event
 * sequence, probe learnability on separable embeddings, and the
 * end-to-end probe-over-TGNN flow.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/cascade_batcher.hh"
#include "graph/dataset.hh"
#include "tgnn/model.hh"
#include "train/churn.hh"
#include "train/metrics.hh"
#include "train/trainer.hh"
#include "util/binio.hh"

using namespace cascade;

TEST(ChurnLabels, HandComputed)
{
    EventSequence seq;
    seq.numNodes = 5;
    seq.events = {{0, 1, 1.0}, {2, 3, 2.0}, {0, 2, 3.0}, {1, 4, 4.0}};
    TemporalAdjacency adj(seq);

    // As of event 2 with horizon 2: window covers events {2, 3}.
    auto labels = churnLabels(adj, {0, 1, 2, 3, 4}, 2, 2);
    EXPECT_EQ(labels, (std::vector<int>{1, 1, 1, 0, 1}));

    // Horizon 1: only event 2 (nodes 0 and 2).
    labels = churnLabels(adj, {0, 1, 2, 3, 4}, 2, 1);
    EXPECT_EQ(labels, (std::vector<int>{1, 0, 1, 0, 0}));
}

TEST(ChurnLabels, PastEventsDoNotCount)
{
    EventSequence seq;
    seq.numNodes = 3;
    seq.events = {{0, 1, 1.0}, {0, 1, 2.0}};
    TemporalAdjacency adj(seq);
    auto labels = churnLabels(adj, {0, 1, 2}, 2, 10);
    EXPECT_EQ(labels, (std::vector<int>{0, 0, 0}));
}

TEST(ChurnProbe, LearnsSeparableEmbeddings)
{
    // Two Gaussian clusters: the probe must separate them.
    Rng rng(5);
    const size_t n = 60, d = 8;
    Tensor emb(n, d);
    std::vector<int> labels(n);
    for (size_t i = 0; i < n; ++i) {
        labels[i] = i % 2;
        const float center = labels[i] ? 1.0f : -1.0f;
        for (size_t c = 0; c < d; ++c) {
            emb.at(i, c) = center +
                0.3f * static_cast<float>(rng.gaussian());
        }
    }
    ChurnProbe probe(d, 7);
    double loss = 0.0;
    for (int e = 0; e < 200; ++e)
        loss = probe.trainEpoch(emb, labels);
    EXPECT_LT(loss, 0.1);
    EXPECT_GT(rocAuc(probe.predict(emb), labels), 0.95);
}

TEST(ChurnProbe, ParametersExposed)
{
    ChurnProbe probe(8, 1);
    EXPECT_FALSE(probe.parameters().empty());
}

TEST(ChurnEndToEnd, ProbeOverTgnnBeatsChance)
{
    DatasetSpec spec = moocSpec(120.0);
    Rng rng(9);
    EventSequence data = generateDataset(spec, rng);
    VectorEventSource src(data);
    TemporalAdjacency adj(data);
    const size_t train_end = data.size() * 7 / 10;
    const size_t horizon = std::max<size_t>(50, data.size() / 30);

    TgnnModel model(tgnConfig(16), spec.numNodes, data.featDim(), 2);
    CascadeBatcher::Options copts;
    copts.baseBatch = spec.baseBatch;
    CascadeBatcher batcher(src, adj, train_end, copts);
    TrainOptions options;
    options.epochs = 2;
    options.validate = false;
    trainModel(model, src, adj, train_end, batcher, options);

    std::vector<NodeId> nodes;
    for (size_t n = 0; n < spec.numNodes; ++n) {
        if (adj.countBefore(static_cast<NodeId>(n),
                            static_cast<EventIdx>(train_end)) > 0) {
            nodes.push_back(static_cast<NodeId>(n));
        }
    }
    Tensor emb = model.embedNodes(nodes,
                                  data.events[train_end - 1].ts, data,
                                  adj,
                                  static_cast<EventIdx>(train_end));
    auto labels = churnLabels(adj, nodes,
                              static_cast<EventIdx>(train_end),
                              horizon);

    ChurnProbe probe(model.config().memoryDim, 3);
    for (int e = 0; e < 300; ++e)
        probe.trainEpoch(emb, labels);
    EXPECT_GT(rocAuc(probe.predict(emb), labels), 0.6);
}

TEST(EmbedNodes, DoesNotMutateModelState)
{
    DatasetSpec spec = wikiSpec(300.0);
    Rng rng(11);
    EventSequence data = generateDataset(spec, rng);
    TemporalAdjacency adj(data);
    for (const ModelConfig &config : allModelConfigs(16)) {
        SCOPED_TRACE(config.name);
        TgnnModel model(config, spec.numNodes, data.featDim(), 4);
        model.step(data, adj, 0, 64, true);

        // Parameters, optimizer, memory, mailbox and the training RNG
        // (uniform samplers draw neighbors; the query must not).
        const auto state = [&model] {
            ByteWriter w;
            model.saveTrainingState(w);
            return w.take();
        };
        const std::string before = state();
        std::vector<NodeId> probe_nodes = {data.events[0].src,
                                           data.events[0].dst};
        Tensor e1 = model.embedNodes(probe_nodes, 50.0, data, adj, 64);
        Tensor e2 = model.embedNodes(probe_nodes, 50.0, data, adj, 64);

        ASSERT_EQ(e1.size(), e2.size());
        EXPECT_EQ(std::memcmp(e1.data(), e2.data(),
                              e1.size() * sizeof(float)),
                  0);
        EXPECT_TRUE(state() == before);
    }
}
