/**
 * @file
 * Command-line training driver.
 *
 * Runs one (dataset, model, policy) training configuration and prints
 * a machine-readable summary line, optionally appending CSV rows to a
 * results file — the entry point a downstream user scripts sweeps
 * with. Flags are declared through the shared tools/cli.hh parser
 * (`--flag value` and `--flag=value`, strict numerics, generated
 * --help).
 *
 * Out-of-core mode: --export-eventlog synthesizes the configured
 * dataset straight into a chunked mmap event log (graph/eventlog.hh)
 * with O(chunk) peak memory and exits; --eventlog trains *from* such
 * a log without ever materializing the event vector — the session
 * hints consumed prefixes so the kernel can drop trained pages, and
 * the summary's rss_peak_mb reports the resulting peak resident set.
 * Both paths produce bit-identical trajectories to the in-memory
 * generator at equal (dataset, scale, seed).
 *
 * With --checkpoint the trainer snapshots its full state (parameters,
 * optimizer moments, memories, batcher schedule, cursor) every
 * --checkpoint-every batches, keeping --checkpoint-keep rotating
 * generations (ckpt.bin, ckpt.bin.1, ...); --resume restarts from the
 * newest generation that validates — skipping torn or corrupt ones —
 * and reproduces the uninterrupted run bit for bit. --resume-auto is
 * the supervisor-friendly variant: it resumes when any generation
 * exists and starts fresh otherwise, so a process-level relaunch loop
 * (tools/chaos_kill) needs no state of its own. Fault injection for
 * resilience testing is driven by the CASCADE_FAULT_* environment
 * variables (util/fault.hh).
 *
 * Observability: --metrics-out dumps the session's metrics registry
 * (per-stage seconds histograms, component counters/gauges) as JSON;
 * --trace-out writes the per-stage span tree in Trace Event Format,
 * loadable by chrome://tracing or Perfetto. --threads sizes the global
 * worker pool (the paper's CPU-thread knob for TG-Diffuser and ABS).
 *
 * Supervision: a failing checkpoint write retries up to --retry-max
 * times with exponential backoff starting at --retry-base-ms (doubling,
 * capped at 2 s), then checkpointing is disabled and training goes on
 * — the summary line reports the checkpoint retries, the final worker
 * mode and whether checkpointing is still on.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "core/cascade_batcher.hh"
#include "graph/dataset.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "tgnn/model.hh"
#include "tgnn/serialize.hh"
#include "cli.hh"
#include "train/session.hh"
#include "train/trainer.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

using namespace cascade;

namespace {

struct CliOptions
{
    std::string dataset = "wiki";
    std::string model = "tgn";
    std::string policy = "cascade";
    double scale = 50.0;
    size_t epochs = 2;
    size_t dim = 32;
    double theta = 0.9;
    uint64_t seed = 42;
    std::string savePath;
    std::string csvPath;
    std::string eventlogPath;   ///< train out-of-core from this log
    std::string exportLogPath;  ///< write the dataset as a log; exit
    std::string checkpointPath;
    size_t checkpointEvery = 50;
    size_t checkpointKeep = 3;
    bool resume = false;
    bool resumeAuto = false;
    std::string metricsOut;
    std::string traceOut;
    size_t threads = 0; ///< 0 = leave the pool at its default size
    size_t retryMax = 3;
    double retryBaseMs = 10.0;
    size_t workers = 1;           ///< worker shards (1 = unsharded)
    size_t shards = 0;            ///< logical shard count K (0 = workers)
    size_t workerHeartbeatMs = 30000; ///< worker reply deadline
};

void
declareFlags(cli::FlagSet &flags, CliOptions &o)
{
    flags.flagString("--dataset", &o.dataset, "D",
                     "wiki|reddit|mooc|wikitalk|sxfull|gdelt|mag");
    flags.flagString("--model", &o.model, "M",
                     "jodie|tgn|apan|dysat|tgat");
    flags.flagString("--policy", &o.policy, "P",
                     "tgl|tglite|neutronstream|etc|cascade|"
                     "cascade-tb|cascade-ex");
    flags.flagDouble("--scale", &o.scale, "S",
                     "dataset scale divisor (1 = paper scale)");
    flags.flagInt("--epochs", &o.epochs, "N", "training epochs");
    flags.flagInt("--dim", &o.dim, "N", "model hidden dimension");
    flags.flagDouble("--theta", &o.theta, "T",
                     "Cascade similarity threshold");
    flags.flagInt("--seed", &o.seed, "N", "master RNG seed");
    flags.flagString("--save", &o.savePath, "FILE",
                     "save trained model parameters");
    flags.flagString("--csv", &o.csvPath, "FILE",
                     "append a results CSV row");
    flags.flagString("--eventlog", &o.eventlogPath, "FILE",
                     "train out-of-core from a CEVL event log");
    flags.flagString("--export-eventlog", &o.exportLogPath, "FILE",
                     "write the dataset as an event log and exit");
    flags.flagString("--checkpoint", &o.checkpointPath, "FILE",
                     "rotating training checkpoints");
    flags.flagInt("--checkpoint-every", &o.checkpointEvery, "N",
                  "snapshot cadence in batches");
    flags.flagInt("--checkpoint-keep", &o.checkpointKeep, "N",
                  "checkpoint generations to keep");
    flags.flagBool("--resume", &o.resume,
                   "resume from the newest valid checkpoint");
    flags.flagAction("--resume-auto",
                     [&o] {
                         o.resume = true;
                         o.resumeAuto = true;
                     },
                     "resume if a checkpoint exists, else start");
    flags.flagString("--metrics-out", &o.metricsOut, "FILE",
                     "dump the metrics registry as JSON");
    flags.flagString("--trace-out", &o.traceOut, "FILE",
                     "write per-stage spans (chrome://tracing)");
    flags.flagInt("--threads", &o.threads, "N",
                  "global worker-pool size (0 = default)");
    flags.flagInt("--retry-max", &o.retryMax, "N",
                  "checkpoint-write retry budget");
    flags.flagDouble("--retry-base-ms", &o.retryBaseMs, "MS",
                     "first checkpoint-write retry backoff");
    flags.flagInt("--workers", &o.workers, "N",
                  "forked worker processes (1 = unsharded)");
    flags.flagInt("--shards", &o.shards, "K",
                  "logical shard count (0 = workers)");
    flags.flagInt("--worker-heartbeat-ms", &o.workerHeartbeatMs, "MS",
                  "worker reply deadline");
}

DatasetSpec
specByName(const std::string &name, double scale)
{
    if (name == "wiki")
        return wikiSpec(scale);
    if (name == "reddit")
        return redditSpec(scale);
    if (name == "mooc")
        return moocSpec(scale);
    if (name == "wikitalk")
        return wikiTalkSpec(scale);
    if (name == "sxfull")
        return sxFullSpec(scale);
    if (name == "gdelt")
        return gdeltSpec(scale);
    if (name == "mag")
        return magSpec(scale);
    CASCADE_FATAL("unknown dataset (see --help)");
}

ModelConfig
modelByCliName(const std::string &name, size_t dim)
{
    if (name == "jodie")
        return jodieConfig(dim);
    if (name == "tgn")
        return tgnConfig(dim);
    if (name == "apan")
        return apanConfig(dim);
    if (name == "dysat")
        return dysatConfig(dim);
    if (name == "tgat")
        return tgatConfig(dim);
    CASCADE_FATAL("unknown model (see --help)");
}

/** Peak resident set of this process so far, in MiB. */
double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opts;
    cli::FlagSet flags("cascade_train",
                       "train one (dataset, model, policy) "
                       "configuration and print a summary line");
    declareFlags(flags, opts);
    switch (flags.parse(argc, argv)) {
      case cli::ParseResult::Help: return 0;
      case cli::ParseResult::Error: return 2;
      case cli::ParseResult::Ok: break;
    }

    if (opts.threads > 0)
        ThreadPool::setGlobalThreads(opts.threads);

    DatasetSpec spec = specByName(opts.dataset, opts.scale);

    if (!opts.exportLogPath.empty()) {
        // Converter mode: synthesize straight to the chunked log with
        // O(chunk) peak memory; the stream is bit-identical to the
        // in-memory generator at the same (dataset, scale, seed).
        Rng rng(opts.seed);
        if (!generateDatasetToLog(spec, rng, opts.exportLogPath)) {
            std::fprintf(stderr, "cannot write event log %s\n",
                         opts.exportLogPath.c_str());
            return 1;
        }
        std::printf("exported dataset=%s scale=%.1f events=%zu "
                    "eventlog=%s rss_peak_mb=%.1f\n",
                    opts.dataset.c_str(), opts.scale, spec.numEvents,
                    opts.exportLogPath.c_str(), peakRssMb());
        return 0;
    }

    // Data source: a generated resident sequence by default, or the
    // mmap'd event log (out-of-core) with --eventlog.
    EventSequence data;
    std::unique_ptr<VectorEventSource> vec_src;
    std::unique_ptr<EventSource> log_src;
    const EventSource *src = nullptr;
    if (!opts.eventlogPath.empty()) {
        std::string err;
        log_src = Dataset::open(opts.eventlogPath,
                                Dataset::Format::EventLog, &err);
        if (!log_src) {
            std::fprintf(stderr, "cannot open event log %s: %s\n",
                         opts.eventlogPath.c_str(), err.c_str());
            return 1;
        }
        src = log_src.get();
    } else {
        Rng rng(opts.seed);
        data = generateDataset(spec, rng);
        vec_src = std::make_unique<VectorEventSource>(data);
        src = vec_src.get();
    }
    TemporalAdjacency adj(*src);
    const size_t train_end = src->size() * 17 / 20;
    const size_t num_nodes = std::max(spec.numNodes, src->numNodes());

    ModelConfig mc = modelByCliName(opts.model, opts.dim);
    if (opts.policy == "tglite")
        mc.dedupEmbed = true;
    TgnnModel model(mc, num_nodes, src->featDim(), opts.seed + 1);

    // One preset batch size feeds the batcher, the validation pass and
    // the device calibration; they must agree (see TrainOptions).
    const size_t base_batch = spec.baseBatch;

    std::unique_ptr<Batcher> batcher;
    if (opts.policy == "tgl" || opts.policy == "tglite") {
        batcher =
            std::make_unique<FixedBatcher>(train_end, base_batch);
    } else if (opts.policy == "neutronstream") {
        batcher = std::make_unique<NeutronStreamBatcher>(
            *src, base_batch, train_end);
    } else if (opts.policy == "etc") {
        batcher = std::make_unique<EtcBatcher>(*src, base_batch,
                                               train_end);
    } else if (opts.policy == "cascade" ||
               opts.policy == "cascade-tb" ||
               opts.policy == "cascade-ex") {
        CascadeBatcher::Options copts;
        copts.baseBatch = base_batch;
        copts.simThreshold = opts.theta;
        copts.enableSgFilter = opts.policy != "cascade-tb";
        if (opts.policy == "cascade-ex")
            copts.chunkSize = std::max<size_t>(1, train_end / 4);
        copts.seed = opts.seed + 2;
        batcher = std::make_unique<CascadeBatcher>(*src, adj, train_end,
                                                   copts);
    } else {
        std::fprintf(stderr, "unknown policy '%s' (--help)\n",
                     opts.policy.c_str());
        return 2;
    }

    TrainOptions toptions;
    toptions.epochs = opts.epochs;
    toptions.evalBatch = base_batch;
    toptions.checkpointPath = opts.checkpointPath;
    toptions.checkpointEvery = opts.checkpointEvery;
    toptions.checkpointKeep = std::max<size_t>(1, opts.checkpointKeep);
    toptions.resume = opts.resume;
    toptions.resumeIfPossible = opts.resumeAuto;
    toptions.retry.maxRetries = opts.retryMax;
    toptions.retry.baseDelayMs = opts.retryBaseMs;
    toptions.workers = opts.workers;
    toptions.shards = opts.shards;
    toptions.workerHeartbeatMs = opts.workerHeartbeatMs;
    if (opts.workers == 0) {
        std::fprintf(stderr, "--workers must be >= 1\n");
        return 2;
    }
    if (opts.resume && opts.checkpointPath.empty()) {
        std::fprintf(stderr, "--resume needs --checkpoint FILE\n");
        return 2;
    }
    DeviceModel device(scaledDeviceParams(base_batch));

    TrainingSession session(model, *src, adj, train_end, *batcher,
                            toptions, &device);
    TrainReport r = session.run();

    if (!opts.metricsOut.empty()) {
        obs::JsonFileSink sink(opts.metricsOut);
        if (!sink.write(session.metrics())) {
            std::fprintf(stderr, "cannot write metrics to %s\n",
                         opts.metricsOut.c_str());
            return 1;
        }
    }
    if (!opts.traceOut.empty() &&
        !session.trace().writeJsonFile(opts.traceOut)) {
        std::fprintf(stderr, "cannot write trace to %s\n",
                     opts.traceOut.c_str());
        return 1;
    }

    if (r.interrupted) {
        std::fprintf(stderr,
                     "training interrupted; rerun with --resume\n");
        return 3;
    }
    std::printf("dataset=%s model=%s policy=%s events=%zu "
                "epochs=%zu batches=%zu avg_batch=%.1f "
                "wall_s=%.3f device_s=%.4f prep_s=%.4f "
                "util=%.3f val_loss=%.4f guard_trips=%zu "
                "retries=%zu degraded=%s "
                "checkpointing=%s workers=%zu shards=%zu "
                "worker_deaths=%zu "
                "out_of_core=%d rss_peak_mb=%.1f\n",
                opts.dataset.c_str(), opts.model.c_str(),
                opts.policy.c_str(), src->size(), opts.epochs,
                r.totalBatches, r.avgBatchSize, r.wallSeconds,
                r.deviceSeconds, r.preprocessSeconds,
                r.deviceUtilization, r.valLoss, r.guardTrips,
                r.checkpointRetries, r.degradedMode.c_str(),
                r.checkpointingDisabled ? "disabled" : "on", r.workers,
                r.shards, r.workerDeaths,
                src->resident() ? 0 : 1, peakRssMb());

    if (!opts.csvPath.empty()) {
        std::FILE *f = std::fopen(opts.csvPath.c_str(), "a");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n",
                         opts.csvPath.c_str());
            return 1;
        }
        std::fprintf(f, "%s,%s,%s,%zu,%zu,%.2f,%.4f,%.4f,%.4f\n",
                     opts.dataset.c_str(), opts.model.c_str(),
                     opts.policy.c_str(), opts.epochs, r.totalBatches,
                     r.avgBatchSize, r.deviceSeconds,
                     r.preprocessSeconds, r.valLoss);
        if (std::fclose(f) != 0) {
            std::fprintf(stderr, "csv close failed: %s\n",
                         opts.csvPath.c_str());
            return 1;
        }
    }
    if (!opts.savePath.empty() && !saveModel(model, opts.savePath)) {
        std::fprintf(stderr, "checkpoint save failed: %s\n",
                     opts.savePath.c_str());
        return 1;
    }
    return 0;
}
