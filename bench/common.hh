/**
 * @file
 * Shared harness support for the per-figure/table benchmarks.
 *
 * Every bench binary regenerates one table or figure of the paper's
 * evaluation. Datasets are the synthetic Table 2 equivalents at per-
 * dataset scales small enough for CPU runs; the defaults keep the
 * whole bench suite under ~15 minutes on two cores and can be resized
 * with environment variables:
 *
 *   CASCADE_SCALE   multiplier on every dataset's scale divisor
 *                   (>1 = smaller/faster, <1 = larger/slower)
 *   CASCADE_EPOCHS  training epochs per run (default 2)
 *   CASCADE_DIM     node-memory width (default 16; paper uses 100)
 *   CASCADE_SEED    dataset/model seed (default 42)
 *
 * Latency columns report the modeled accelerator time of
 * sim/device_model.hh (the A100 substitution — see DESIGN.md §2)
 * next to measured CPU wall time.
 */

#ifndef CASCADE_BENCH_COMMON_HH
#define CASCADE_BENCH_COMMON_HH

#include <memory>
#include <string>
#include <vector>

#include "core/cascade_batcher.hh"
#include "graph/dataset.hh"
#include "obs/metrics.hh"
#include "sim/device_model.hh"
#include "tgnn/model.hh"
#include "train/trainer.hh"

namespace cascade {
namespace bench {

/** A generated dataset plus its adjacency and train split. */
struct DatasetHandle
{
    DatasetSpec spec;
    EventSequence data;
    VectorEventSource src;
    TemporalAdjacency adj;
    size_t trainEnd;

    DatasetHandle(DatasetSpec s, EventSequence d)
        : spec(std::move(s)), data(std::move(d)), src(data),
          adj(data), trainEnd(data.size() * 17 / 20)
    {}
};

/** Global knobs resolved from the environment. */
struct BenchConfig
{
    double scaleMultiplier = 1.0;
    size_t epochs = 2;
    size_t dim = 16;
    /**
     * Loss-figure stabilization: the recurrent-memory models (APAN,
     * JODIE, DySAT) train too noisily at narrow memory widths for
     * meaningful loss ratios; with this flag their dim is raised to
     * at least 32 (every policy of a model runs at the same dim, so
     * within-model ratios stay self-consistent) while the GAT-heavy
     * models keep the cheaper width.
     */
    bool stableLossDims = false;
    uint64_t seed = 42;

    static BenchConfig fromEnv();
};

/** The five moderate datasets (§5.2) at bench scale, paper order. */
std::vector<DatasetSpec> moderateSpecs(const BenchConfig &cfg);

/** The two billion-edge datasets (§5.5) at bench scale. */
std::vector<DatasetSpec> largeSpecs(const BenchConfig &cfg);

/** Generate a dataset handle (deterministic per cfg.seed). */
std::unique_ptr<DatasetHandle> load(const DatasetSpec &spec,
                                    const BenchConfig &cfg);

/** Table 1 model by presentation name (APAN/JODIE/TGN/DySAT/TGAT). */
ModelConfig modelByName(const std::string &name, const BenchConfig &cfg,
                        bool dedup = false);

/** Names in the paper's figure order. */
std::vector<std::string> modelNames();

/** Training-framework policies compared across the evaluation. */
enum class Policy
{
    Tgl,          ///< fixed base batches (baseline)
    TgLite,       ///< fixed batches + dedup execution
    Cascade,      ///< full Cascade
    CascadeLite,  ///< Cascade + dedup execution
    CascadeTb,    ///< Cascade without SG-Filter (§5.3 ablation)
    CascadeEx,    ///< Cascade + chunked pipelined tables (§5.5)
    NeutronStream,///< dependency-window batching (§5.6)
    Etc           ///< information-loss-bounded batching (§5.6)
};

const char *policyName(Policy p);

/** Extra knobs for special runs. */
struct RunOverrides
{
    /** TGL-LB: replace the base batch with this fixed size. */
    size_t fixedBatchOverride = 0;
    /** SG-Filter threshold (Figure 13a sweeps it). */
    double simThreshold = 0.9;
    /** Cascade_EX chunk size; 0 = trainEnd/4. */
    size_t chunkSize = 0;
    /** Epoch override; 0 = cfg.epochs. */
    size_t epochs = 0;
    /** Run the post-training validation pass (loss figures). */
    bool validate = true;
};

/**
 * One full training run of a model under a policy. Pass a registry to
 * additionally collect the session's per-stage histograms and the
 * component state it publishes at the end of the run
 * (`stage.*.seconds`, `batcher.*`, ...).
 */
TrainReport runPolicy(DatasetHandle &ds, const std::string &model_name,
                      Policy policy, const BenchConfig &cfg,
                      const RunOverrides &ovr = RunOverrides{},
                      obs::MetricsRegistry *metrics = nullptr);

/** Printf a table header followed by a separator line. */
void printHeader(const std::string &title, const std::string &columns);

} // namespace bench
} // namespace cascade

#endif // CASCADE_BENCH_COMMON_HH
