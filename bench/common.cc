#include "common.hh"

#include <algorithm>
#include <cstdio>

#include "train/batcher.hh"
#include "train/session.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace cascade {
namespace bench {

BenchConfig
BenchConfig::fromEnv()
{
    BenchConfig cfg;
    cfg.scaleMultiplier = envDouble("CASCADE_SCALE", 1.0);
    cfg.epochs = static_cast<size_t>(envLong("CASCADE_EPOCHS", 1));
    cfg.dim = static_cast<size_t>(envLong("CASCADE_DIM", 16));
    cfg.seed = static_cast<uint64_t>(envLong("CASCADE_SEED", 42));
    return cfg;
}

// Per-dataset scale divisors chosen so each bench dataset lands at a
// few thousand events (minutes, not hours, on two CPU cores) while
// preserving the published sparse-vs-dense ordering.
std::vector<DatasetSpec>
moderateSpecs(const BenchConfig &cfg)
{
    const double m = cfg.scaleMultiplier;
    return {
        wikiSpec(50.0 * m),      redditSpec(150.0 * m),
        moocSpec(130.0 * m),     wikiTalkSpec(2000.0 * m),
        sxFullSpec(20000.0 * m),
    };
}

std::vector<DatasetSpec>
largeSpecs(const BenchConfig &cfg)
{
    const double m = cfg.scaleMultiplier;
    return {gdeltSpec(20000.0 * m), magSpec(200000.0 * m)};
}

std::unique_ptr<DatasetHandle>
load(const DatasetSpec &spec, const BenchConfig &cfg)
{
    Rng rng(cfg.seed);
    return std::make_unique<DatasetHandle>(spec,
                                           generateDataset(spec, rng));
}

ModelConfig
modelByName(const std::string &name, const BenchConfig &cfg, bool dedup)
{
    ModelConfig c;
    const size_t stable_dim = cfg.stableLossDims
        ? std::max<size_t>(cfg.dim, 32) : cfg.dim;
    if (name == "APAN")
        c = apanConfig(stable_dim);
    else if (name == "JODIE")
        c = jodieConfig(stable_dim);
    else if (name == "TGN")
        c = tgnConfig(cfg.dim);
    else if (name == "DySAT")
        c = dysatConfig(stable_dim);
    else if (name == "TGAT")
        c = tgatConfig(cfg.dim);
    else
        CASCADE_FATAL("unknown model name");
    c.dedupEmbed = dedup;
    return c;
}

std::vector<std::string>
modelNames()
{
    return {"APAN", "JODIE", "TGN", "DySAT", "TGAT"};
}

const char *
policyName(Policy p)
{
    switch (p) {
      case Policy::Tgl: return "TGL";
      case Policy::TgLite: return "TGLite";
      case Policy::Cascade: return "Cascade";
      case Policy::CascadeLite: return "Cascade-Lite";
      case Policy::CascadeTb: return "Cascade-TB";
      case Policy::CascadeEx: return "Cascade_EX";
      case Policy::NeutronStream: return "NeutronStream";
      case Policy::Etc: return "ETC";
    }
    return "?";
}

TrainReport
runPolicy(DatasetHandle &ds, const std::string &model_name, Policy policy,
          const BenchConfig &cfg, const RunOverrides &ovr,
          obs::MetricsRegistry *metrics)
{
    const bool dedup =
        policy == Policy::TgLite || policy == Policy::CascadeLite;
    ModelConfig mc = modelByName(model_name, cfg, dedup);
    TgnnModel model(mc, ds.spec.numNodes, ds.data.featDim(),
                    cfg.seed + 1);

    std::unique_ptr<Batcher> batcher;
    switch (policy) {
      case Policy::Tgl:
      case Policy::TgLite: {
        const size_t bs = ovr.fixedBatchOverride
            ? ovr.fixedBatchOverride : ds.spec.baseBatch;
        batcher = std::make_unique<FixedBatcher>(ds.trainEnd, bs);
        break;
      }
      case Policy::NeutronStream:
        batcher = std::make_unique<NeutronStreamBatcher>(
            ds.data, ds.spec.baseBatch, ds.trainEnd);
        break;
      case Policy::Etc:
        batcher = std::make_unique<EtcBatcher>(
            ds.data, ds.spec.baseBatch, ds.trainEnd);
        break;
      default: {
        CascadeBatcher::Options copts;
        copts.baseBatch = ds.spec.baseBatch;
        copts.simThreshold = ovr.simThreshold;
        copts.seed = cfg.seed + 2;
        if (policy == Policy::CascadeTb)
            copts.enableSgFilter = false;
        if (policy == Policy::CascadeEx) {
            copts.chunkSize = ovr.chunkSize
                ? ovr.chunkSize
                : std::max<size_t>(1, ds.trainEnd / 4);
        }
        batcher = std::make_unique<CascadeBatcher>(
            ds.src, ds.adj, ds.trainEnd, copts);
        break;
      }
    }

    TrainOptions options;
    options.epochs = ovr.epochs ? ovr.epochs : cfg.epochs;
    options.evalBatch = ds.spec.baseBatch;
    options.validate = ovr.validate;

    DeviceModel device(scaledDeviceParams(ds.spec.baseBatch));
    TrainingSession session(model, ds.src, ds.adj, ds.trainEnd,
                            *batcher, options, &device, metrics);
    return session.run();
}

void
printHeader(const std::string &title, const std::string &columns)
{
    std::printf("\n== %s ==\n%s\n", title.c_str(), columns.c_str());
    for (size_t i = 0; i < columns.size(); ++i)
        std::putchar('-');
    std::putchar('\n');
    std::fflush(stdout);
}

} // namespace bench
} // namespace cascade
