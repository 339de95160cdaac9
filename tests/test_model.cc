/**
 * @file
 * TgnnModel tests across all five Table 1 configurations: pipeline
 * mechanics (memory writes, mailbox messages, SG-Filter cosines),
 * learnability (loss decreases), determinism, state snapshots, and
 * the checkpoint section's save/load round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "graph/dataset.hh"
#include "tgnn/model.hh"
#include "util/binio.hh"

using namespace cascade;

namespace {

struct Fixture
{
    DatasetSpec spec;
    EventSequence data;
    TemporalAdjacency adj;

    explicit Fixture(double scale = 250.0, uint64_t seed = 11)
        : spec(wikiSpec(scale)),
          data([&] {
              Rng rng(seed);
              return generateDataset(spec, rng);
          }()),
          adj(data)
    {}
};

/** The model's checkpoint section, as saveTrainingState writes it. */
std::string
trainingStateBytes(const TgnnModel &model)
{
    ByteWriter w;
    model.saveTrainingState(w);
    return w.take();
}

/** Train in fixed batches of 100 over events [0, ed). */
void
trainPrefix(TgnnModel &model, const Fixture &f, size_t ed)
{
    for (size_t st = 0; st < ed; st += 100)
        model.step(f.data, f.adj, st, std::min(ed, st + 100), true);
}

ModelConfig
configByIndex(int i, size_t dim = 16)
{
    switch (i) {
      case 0: return jodieConfig(dim);
      case 1: return tgnConfig(dim);
      case 2: return apanConfig(dim);
      case 3: return dysatConfig(dim);
      default: return tgatConfig(dim);
    }
}

} // namespace

class AllModels : public ::testing::TestWithParam<int>
{};

TEST_P(AllModels, StepRunsAndReportsSaneLoss)
{
    Fixture f;
    ModelConfig cfg = configByIndex(GetParam());
    TgnnModel model(cfg, f.spec.numNodes, f.data.featDim(), 1);
    StepResult r = model.step(f.data, f.adj, 0, 32, true);
    EXPECT_EQ(r.numEvents, 32u);
    EXPECT_GT(r.loss, 0.0);
    EXPECT_LT(r.loss, 10.0);
    EXPECT_GT(r.workRows, 0u);
}

TEST_P(AllModels, TrainingLossDecreases)
{
    Fixture f;
    ModelConfig cfg = configByIndex(GetParam());
    TgnnModel model(cfg, f.spec.numNodes, f.data.featDim(), 2);
    const size_t bs = 32;
    double first_epoch = 0.0, last_epoch = 0.0;
    const int epochs = 4;
    for (int e = 0; e < epochs; ++e) {
        model.resetState();
        double sum = 0.0;
        size_t cnt = 0;
        for (size_t st = 0; st + bs <= f.data.size(); st += bs) {
            sum += model.step(f.data, f.adj, st, st + bs, true).loss;
            ++cnt;
        }
        const double avg = sum / cnt;
        if (e == 0)
            first_epoch = avg;
        last_epoch = avg;
    }
    EXPECT_LT(last_epoch, first_epoch) << cfg.name;
}

TEST_P(AllModels, DeterministicGivenSeed)
{
    Fixture f;
    ModelConfig cfg = configByIndex(GetParam());
    TgnnModel a(cfg, f.spec.numNodes, f.data.featDim(), 3);
    TgnnModel b(cfg, f.spec.numNodes, f.data.featDim(), 3);
    for (size_t st = 0; st < 96; st += 32) {
        StepResult ra = a.step(f.data, f.adj, st, st + 32, true);
        StepResult rb = b.step(f.data, f.adj, st, st + 32, true);
        ASSERT_DOUBLE_EQ(ra.loss, rb.loss);
    }
}

TEST_P(AllModels, ParameterRegistryNonEmptyAndTrainable)
{
    Fixture f(400.0);
    ModelConfig cfg = configByIndex(GetParam());
    TgnnModel model(cfg, f.spec.numNodes, f.data.featDim(), 4);
    auto params = model.parameters();
    ASSERT_FALSE(params.empty());
    for (const auto &p : params)
        ASSERT_TRUE(p.requiresGrad());
    EXPECT_GT(model.parameterBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Table1, AllModels, ::testing::Range(0, 5),
                         [](const auto &info) {
                             return configByIndex(info.param).name;
                         });

TEST(TgnnModel, MemoryModelsUpdateMemoriesAfterConsumption)
{
    Fixture f;
    TgnnModel model(tgnConfig(16), f.spec.numNodes, f.data.featDim(), 5);
    // First batch: mailboxes are empty, nothing to consume.
    StepResult r0 = model.step(f.data, f.adj, 0, 32, true);
    EXPECT_TRUE(r0.updatedNodes.empty());
    // Second batch: nodes seen again consume their pending messages.
    StepResult r1 = model.step(f.data, f.adj, 32, 64, true);
    EXPECT_FALSE(r1.updatedNodes.empty());
    EXPECT_EQ(r1.updatedNodes.size(), r1.memCosine.size());
    for (double c : r1.memCosine) {
        EXPECT_GE(c, -1.0 - 1e-6);
        EXPECT_LE(c, 1.0 + 1e-6);
    }
    // Updated nodes now carry nonzero memory.
    Tensor mem = model.memory().gather(r1.updatedNodes);
    EXPECT_GT(mem.maxAbs(), 0.0f);
}

TEST(TgnnModel, IdentityMemoryNeverWrites)
{
    Fixture f;
    TgnnModel model(tgatConfig(16), f.spec.numNodes, f.data.featDim(),
                    6);
    Tensor before = model.memory().gather({0, 1, 2});
    for (size_t st = 0; st < 128; st += 32)
        EXPECT_TRUE(model.step(f.data, f.adj, st, st + 32, true)
                        .updatedNodes.empty());
    Tensor after = model.memory().gather({0, 1, 2});
    for (size_t i = 0; i < before.size(); ++i)
        EXPECT_FLOAT_EQ(before.data()[i], after.data()[i]);
}

TEST(TgnnModel, ResetStateClearsMemoryModels)
{
    Fixture f;
    TgnnModel model(jodieConfig(16), f.spec.numNodes, f.data.featDim(),
                    7);
    model.step(f.data, f.adj, 0, 64, true);
    model.step(f.data, f.adj, 64, 128, true);
    model.resetState();
    // All memories zero again.
    std::vector<NodeId> all;
    for (size_t n = 0; n < f.spec.numNodes; ++n)
        all.push_back(static_cast<NodeId>(n));
    EXPECT_FLOAT_EQ(model.memory().gather(all).maxAbs(), 0.0f);
}

TEST(TgnnModel, ResetStateReinitializesStaticFeatures)
{
    // TGAT's random node features must survive reset identically.
    Fixture f;
    TgnnModel model(tgatConfig(16), f.spec.numNodes, f.data.featDim(),
                    8);
    Tensor before = model.memory().gather({0, 1});
    model.resetState();
    Tensor after = model.memory().gather({0, 1});
    for (size_t i = 0; i < before.size(); ++i)
        EXPECT_FLOAT_EQ(before.data()[i], after.data()[i]);
    EXPECT_GT(before.maxAbs(), 0.0f);
}

TEST(TgnnModel, SaveRestoreStateRoundTrip)
{
    Fixture f;
    TgnnModel model(tgnConfig(16), f.spec.numNodes, f.data.featDim(), 9);
    model.step(f.data, f.adj, 0, 64, true);
    auto snapshot = model.saveState();
    Tensor mem_before = model.memory().gather({0, 1, 2, 3});

    model.step(f.data, f.adj, 64, 192, true);
    // Copied into the arrays the model already owns, not swapped in.
    const float *storage = model.memory().raw().data();
    model.restoreState(snapshot);
    EXPECT_EQ(model.memory().raw().data(), storage);
    Tensor mem_after = model.memory().gather({0, 1, 2, 3});
    for (size_t i = 0; i < mem_before.size(); ++i)
        EXPECT_FLOAT_EQ(mem_before.data()[i], mem_after.data()[i]);
}

TEST(TgnnModel, EvalLossDoesNotTouchWeights)
{
    Fixture f;
    TgnnModel model(tgnConfig(16), f.spec.numNodes, f.data.featDim(),
                    10);
    model.step(f.data, f.adj, 0, 64, true);
    auto params = model.parameters();
    std::vector<Tensor> before;
    for (const auto &p : params)
        before.push_back(p.value());

    model.evalLoss(f.data, f.adj, 64, 256, 32);
    for (size_t i = 0; i < params.size(); ++i) {
        const Tensor &now = params[i].value();
        for (size_t j = 0; j < now.size(); ++j)
            ASSERT_FLOAT_EQ(now.data()[j], before[i].data()[j]);
    }
}

TEST(TgnnModel, StaleMemoriesHurtPredictions)
{
    // The §3.1 trade-off: processing the whole training range as one
    // giant batch (maximal staleness) must yield a worse final
    // validation loss than small batches, on a drifting graph.
    Fixture f(150.0, 21);
    const size_t train_end = f.data.size() * 4 / 5;

    auto run = [&](size_t bs) {
        TgnnModel model(tgnConfig(16), f.spec.numNodes,
                        f.data.featDim(), 11);
        for (int e = 0; e < 3; ++e) {
            model.resetState();
            for (size_t st = 0; st < train_end; st += bs) {
                model.step(f.data, f.adj, st,
                           std::min(train_end, st + bs), true);
            }
        }
        return model.evalLoss(f.data, f.adj, train_end, f.data.size(),
                              32);
    };
    const double small = run(32);
    const double giant = run(train_end);
    EXPECT_LT(small, giant);
}

TEST(TgnnModel, WorkRowsScaleWithFanout)
{
    Fixture f;
    TgnnModel narrow(tgnConfig(16), f.spec.numNodes, f.data.featDim(),
                     12);
    TgnnModel wide(tgatConfig(16), f.spec.numNodes, f.data.featDim(),
                   12);
    StepResult rn = narrow.step(f.data, f.adj, 0, 32, false);
    StepResult rw = wide.step(f.data, f.adj, 0, 32, false);
    // TGAT's 2-layer fanout-10 embedding does more effective dense
    // work (lane-weighted, so ~2-4x rather than a naive 30x).
    EXPECT_GT(rw.workRows, 3 * rn.workRows / 2);
}

TEST(TgnnModel, TrainingStateSaveLoadSaveIsByteIdentical)
{
    // APAN keeps 10 messages per node; all but the last 100 events
    // wrap the rings of the busiest nodes (each event pushes to both
    // endpoints).
    Fixture f;
    const size_t ed = f.data.size() - 100;
    std::vector<size_t> pushes(f.spec.numNodes, 0);
    for (size_t i = 0; i < ed; ++i) {
        ++pushes[static_cast<size_t>(f.data.events[i].src)];
        ++pushes[static_cast<size_t>(f.data.events[i].dst)];
    }
    const ModelConfig cfg = apanConfig(16);
    ASSERT_GT(*std::max_element(pushes.begin(), pushes.end()),
              cfg.mailboxSlots);

    TgnnModel model(cfg, f.spec.numNodes, f.data.featDim(), 21);
    trainPrefix(model, f, ed);
    const std::string first = trainingStateBytes(model);

    // Another seed, so every array must come from the payload.
    TgnnModel restored(cfg, f.spec.numNodes, f.data.featDim(), 22);
    ByteReader r(first);
    ASSERT_TRUE(restored.loadTrainingState(r));
    EXPECT_TRUE(r.atEnd());
    EXPECT_TRUE(trainingStateBytes(restored) == first);

    // Restored parameters, moments, memory, mailbox and RNG continue
    // the trajectory bit for bit.
    const StepResult a = model.step(f.data, f.adj, ed, ed + 100, true);
    const StepResult b = restored.step(f.data, f.adj, ed, ed + 100, true);
    EXPECT_EQ(std::memcmp(&a.loss, &b.loss, sizeof a.loss), 0);
    EXPECT_EQ(a.memCosine, b.memCosine);
    EXPECT_TRUE(trainingStateBytes(restored) == trainingStateBytes(model));
}

TEST(TgnnModel, TrainingStateLoadRefusesMismatchAndLeavesStateUntouched)
{
    Fixture f;
    const size_t n = f.spec.numNodes, feat = f.data.featDim();
    TgnnModel source(apanConfig(16), n, feat, 21);
    trainPrefix(source, f, 300);
    const std::string good = trainingStateBytes(source);

    ModelConfig five_slots = apanConfig(16);
    five_slots.mailboxSlots = 5;
    const std::vector<std::string> bad = {
        good.substr(0, good.size() - 1), // truncated
        good + std::string(1, '\0'),     // trailing byte
        trainingStateBytes(TgnnModel(apanConfig(16), n + 1, feat, 21)),
        trainingStateBytes(TgnnModel(apanConfig(8), n, feat, 21)),
        trainingStateBytes(TgnnModel(five_slots, n, feat, 21)),
    };
    for (const std::string &bytes : bad) {
        // A state unlike the payload's, so a partial load would show.
        TgnnModel target(apanConfig(16), n, feat, 33);
        trainPrefix(target, f, 200);
        const std::string before = trainingStateBytes(target);
        ByteReader r(bytes);
        EXPECT_FALSE(target.loadTrainingState(r));
        EXPECT_TRUE(trainingStateBytes(target) == before);
    }
}
