/**
 * @file
 * Benchmark workloads and the phases a run drives through the
 * library's public API: set-up (load → adjacency → model → batcher),
 * training, validation, and serving the validation suffix live.
 *
 * Every phase exists in an untraced form, which is what a user calls
 * (TrainingSession::run, TgnnModel::evalLoss), and a traced form that
 * makes the same calls one by one from the benchmark's own loop and
 * records a span around each.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "graph/adjacency.hh"
#include "graph/dataset.hh"
#include "tensor/kernels.hh"
#include "tgnn/model.hh"
#include "train/batcher.hh"
#include "trace.hh"

namespace perfbench {

/** One benchmark workload: dataset, model, batching policy. */
struct WorkloadDef
{
    const char *name;
    const char *dataset;   ///< "wikitalk" or "reddit"
    double scale;          ///< dataset scale divisor
    double smokeScale;     ///< scale for the self-test's smoke size
    const char *model;     ///< "tgn" or "apan"
    bool cascade;          ///< Cascade batcher; else TGL fixed batches
};

const std::vector<WorkloadDef> &workloads();
const WorkloadDef *findWorkload(const std::string &name);
cascade::DatasetSpec specFor(const WorkloadDef &w, bool smoke);

/** Model width of every workload. */
constexpr size_t kDim = 64;
/** Global pool size every workload pins (capped at nproc). */
constexpr size_t kThreads = 2;
/** Live events per ServeEngine::applyEvents window. */
constexpr size_t kWindow = 512;
/** advanceState grain inside a window (the engine's default). */
constexpr size_t kApplyBatch = 128;
/** Queries answered between two windows; the first pays the sync. */
constexpr size_t kQueriesPerWindow = 64;
/** Every kSampleEvery-th query of the first pass is re-checked. */
constexpr size_t kSampleEvery = 8;

/** What one set-up builds. Members destroy in reverse order. */
struct Stack
{
    std::unique_ptr<cascade::EventSource> src;
    std::unique_ptr<cascade::TemporalAdjacency> adj;
    std::unique_ptr<cascade::TgnnModel> model;
    std::unique_ptr<cascade::Batcher> batcher;
    size_t trainEnd = 0;
    size_t baseBatch = 0;
};

/** Open `path` and build graph, model and batcher (spans if traced). */
std::unique_ptr<Stack> buildStack(const WorkloadDef &w,
                                  const cascade::DatasetSpec &spec,
                                  const std::string &path,
                                  uint64_t seed, Recorder *tracer);

/** One admitted training batch. */
struct LossRecord
{
    size_t st;
    size_t ed;
    double loss;
};

struct TrainResult
{
    double wall = 0.0;         ///< seconds of the training loop
    size_t events = 0;         ///< admitted training events
    size_t attempted = 0;      ///< batches run, rolled back ones too
    size_t rolledBack = 0;     ///< numeric-guard trips
    std::vector<LossRecord> batches;
    /** Seconds from the call to each batch's end (untraced only). */
    std::vector<double> batchEnd;
    // Traced loop only.
    size_t sampledNeighbors = 0;
    size_t snapshots = 0;
    size_t snapshotBytes = 0;
    cascade::kernels::KernelStats kernelsBefore, kernelsAfter;
};

/** TrainingSession::run, one epoch, validation off. */
TrainResult trainWithSession(Stack &s);
/**
 * Seconds of each run of consecutive batches of an untraced epoch,
 * cut at the session's snapshot cadence, so each segment holds one
 * snapshot; the first starts with the call and the last ends with it.
 */
std::vector<double> segmentSeconds(const TrainResult &r);
/** The session's synchronous loop, call by call, with spans. */
TrainResult trainTraced(Stack &s, Recorder &tracer);

struct EvalResult
{
    double wall = 0.0;
    double loss = 0.0;
    size_t events = 0;
};

/** TgnnModel::evalLoss over the suffix at the base batch. */
EvalResult evalWithModel(Stack &s);
/** evalLoss's batches as separate step(train=false) calls. */
EvalResult evalTraced(Stack &s, Recorder &tracer);

/** One query answer kept for the offline re-check. */
struct ServeSample
{
    size_t window;
    bool score;
    std::vector<cascade::NodeId> nodes;
    std::vector<float> answer;
};

struct ServeResult
{
    size_t passes = 0;
    size_t liveEvents = 0;
    size_t queries = 0;
    size_t stale = 0;           ///< answers not from the newest snapshot
    size_t queryErrors = 0;     ///< queries that threw
    std::vector<double> applySeconds;
    std::vector<size_t> applyEvents;  ///< events of each window
    std::vector<double> firstQueryMs; ///< first query after a publish
    std::vector<double> otherQueryMs;
    /** Event ranges of the first pass's windows. */
    std::vector<std::pair<size_t, size_t>> windows;
    std::vector<ServeSample> samples;
};

/**
 * Serve the validation suffix live: from `start` (the state at the
 * end of training), alternate ServeEngine::applyEvents over kWindow
 * events with kQueriesPerWindow queries through one ServeReader,
 * until the stream is drained. Passes over the same suffix repeat
 * until `min_seconds` of serving has been measured (at least one),
 * so the latency and ingest figures average over the machine's
 * second-to-second noise.
 */
ServeResult serve(Stack &s, const cascade::TgnnModel::State &start,
                  uint64_t seed, double min_seconds, Recorder *tracer);

/**
 * Replay the first pass offline on the model itself (advanceState at
 * the engine's batch grain) and recompute every sampled answer with
 * embedNodes/scoreLinks. `perturb` flips one bit of the first kept
 * answer first. @return the number of answers that differ
 */
size_t checkServeAnswers(Stack &s,
                         const cascade::TgnnModel::State &start,
                         const ServeResult &r, bool perturb);

/** Peak resident set so far, MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
