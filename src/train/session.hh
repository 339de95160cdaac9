/**
 * @file
 * Staged training session (the decomposed trainer).
 *
 * The seed's `trainModel()` was one free function that hand-rolled
 * batching, guard/rollback, checkpointing and a bespoke timing scheme
 * smeared across three layers. TrainingSession makes the stages of one
 * global batch explicit and observable:
 *
 *   boundary   — Batcher::next (batch-boundary decision; for Cascade
 *                the Algorithm 3 lookup, whose seconds the report's
 *                lookupSeconds reads from this stage)
 *   model      — TgnnModel::step (forward/backward/update)
 *   guard      — NumericGuard admission + rollback restore on a trip
 *   feedback   — Batcher::onBatchDone (SG-Filter + ABS refresh) and
 *                the device-model charge
 *   checkpoint — cadence snapshot encode; the supervised file write
 *                of that snapshot runs in the background (below)
 *
 * plus a post-training `eval` stage. Checkpoint writes, the one stage
 * a full disk can fail, run under a Supervisor (train/supervisor.hh):
 * they retry with exponential backoff, and when the budget exhausts
 * the session enters a one-way "checkpointing disabled" mode instead
 * of dying. Any other stage's exception (a failed dependency-table
 * build included) propagates out of run(). Every stage runs under a
 * trace span (epoch > batch > stage, chrome://tracing JSON via
 * obs::TraceRecorder) and records its seconds into a
 * `stage.<name>.seconds` histogram in the session's MetricsRegistry.
 *
 * The session is the registry's one writer of run facts. Model,
 * batcher, guard, device model and kernels hold no instruments; the
 * session records what it observes as it happens (stage seconds,
 * batch sizes, each batch's modeled device seconds),
 * publishes the components' end-of-run state once after the eval
 * stage (guard trips, device utilization, batcher preprocessing and
 * state bytes, model sizes, the change in kernels::stats() over the
 * run), and then reads every measurement field of the TrainReport
 * back out of the registry, one instrument per field.
 *
 * The stages run in program order on one thread (kernels fan out
 * over the worker pool inside a stage). The one stage work that
 * overlaps later batches is the checkpoint file write: at a cadence
 * point the session encodes the rollback snapshot and hands the disk
 * write of those same bytes to one background thread (at most one
 * write in flight), which is joined before the next encode, before
 * run() returns (so also after an injected crash, and before the
 * final checkpoint) and when the session is destroyed.
 *
 * The decomposition is behavior-preserving: stage order and state
 * transitions replicate the seed trainer exactly, so per-batch loss
 * sequences and batch boundaries are bit-identical (guarded by the
 * golden-trajectory test) and checkpoint/resume trajectories are
 * unchanged.
 */

#ifndef CASCADE_TRAIN_SESSION_HH
#define CASCADE_TRAIN_SESSION_HH

#include <functional>
#include <memory>
#include <string>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "tensor/kernels.hh"
#include "train/checkpoint.hh"
#include "train/supervisor.hh"
#include "train/trainer.hh"
#include "util/queue.hh"
#include "util/thread_annotations.hh"

namespace cascade {

class WorkerGroup;

/** One finished batch, as seen by observers. */
struct BatchRecord
{
    uint64_t globalBatch = 0; ///< index across epochs and rollbacks
    size_t epoch = 0;
    size_t st = 0;            ///< first event (inclusive)
    size_t ed = 0;            ///< one past the last event
    double loss = 0.0;
    size_t numEvents = 0;
};

/** Staged, observable training loop over one (model, batcher) pair. */
class TrainingSession
{
  public:
    /**
     * Wire a session; nothing runs until run(). All references must
     * outlive the session. `data` may be any EventSource — a resident
     * vector or an mmap'd event log (out-of-core training; the
     * session hints consumed prefixes so the kernel can drop trained
     * pages). `device`, `metrics` and `trace` may be null: the
     * session then uses private instances (reachable via
     * metrics()/trace() afterwards). A caller's registry must be
     * fresh: the report reads this run's totals out of it.
     */
    TrainingSession(TgnnModel &model, const EventSource &data,
                    const TemporalAdjacency &adj, size_t train_end,
                    Batcher &batcher, const TrainOptions &options,
                    DeviceModel *device = nullptr,
                    obs::MetricsRegistry *metrics = nullptr,
                    obs::TraceRecorder *trace = nullptr);

    /** Joins a checkpoint write still in flight (the run threw). */
    ~TrainingSession();

    TrainingSession(const TrainingSession &) = delete;
    TrainingSession &operator=(const TrainingSession &) = delete;

    /**
     * Called after every admitted batch (golden-trajectory tests,
     * live progress UIs, per-batch timing). Rolled-back
     * batches do not reach the observer, mirroring how they
     * contribute nothing to the run.
     */
    void
    setBatchObserver(std::function<void(const BatchRecord &)> observer)
    {
        observer_ = std::move(observer);
    }

    /** Execute the full run (or resume); at most once per session. */
    TrainReport run();

    /**
     * The session's metrics registry: stage seconds and counts as
     * they happen; component state once run() has returned.
     */
    obs::MetricsRegistry &metrics() { return *metrics_; }
    const obs::MetricsRegistry &metrics() const { return *metrics_; }

    /** The session's trace recorder (one span per stage). */
    obs::TraceRecorder &trace() { return *trace_; }
    const obs::TraceRecorder &trace() const { return *trace_; }

  private:
    /** Per-batch outcome deciding the loop's next move. */
    enum class BatchOutcome
    {
        Admitted,  ///< batch counted; cursor advanced
        RolledBack,///< guard trip; cursor restored to the snapshot
        Crashed    ///< injected crash; run ends interrupted
    };

    /** Stage: resume from disk or capture the pristine snapshot. */
    void initOrResume();

    /** One global batch through every stage. */
    BatchOutcome runBatch();

    /**
     * Stage `checkpoint`: join the previous write, encode the cadence
     * snapshot into lastGood_'s storage, and launch its write in the
     * background.
     */
    void snapshotIfDue();

    /**
     * Wait for the background checkpoint write, if one is in flight.
     * Every read of checkpointingDisabled_ or the checkpoint counters
     * and every reassignment of lastGood_ on the training thread
     * happens after this join.
     */
    void joinPendingWrite();

    /**
     * Supervised checkpoint write (cadence and final). Retries under
     * the RetryPolicy; when the budget exhausts, checkpointing is
     * disabled for the rest of the run (one-way, `checkpoint.skipped`
     * counts subsequent cadence points) — durability degrades, the
     * training run itself never dies on a full disk. Cadence writes
     * run on pendingWrite_'s thread; the final write on the training
     * thread. Injected checkpoint latency (util/fault.hh) sleeps
     * inside the write window, between the marker and the save.
     */
    void writeCheckpoint(const std::string &payload, const char *what);

    /**
     * Count a degradation-ladder transition (metric + trace + log) and
     * make `mode` the report's degradedMode. Any thread.
     */
    void recordDegradation(const std::string &mode);

    /** Close the epoch's accounting (EpochStats). */
    void finishEpoch(double epoch_wall, double dev_before);

    /**
     * Stage `eval`, then publish the components' end-of-run state
     * and read the TrainReport out of the registry.
     */
    void assembleReport();

    // --- wiring -----------------------------------------------------
    TgnnModel &model_;
    const EventSource &data_;
    const TemporalAdjacency &adj_;
    size_t trainEnd_;
    Batcher &batcher_;
    TrainOptions options_;
    DeviceModel *device_;

    std::unique_ptr<DeviceModel> ownedDevice_;
    std::unique_ptr<obs::MetricsRegistry> ownedMetrics_;
    std::unique_ptr<obs::TraceRecorder> ownedTrace_;
    obs::MetricsRegistry *metrics_;
    obs::TraceRecorder *trace_;

    // --- run state --------------------------------------------------
    NumericGuard guard_;
    std::unique_ptr<Supervisor> supervisor_;
    /** Sharded multi-worker runtime; null in the unsharded loop. */
    std::unique_ptr<WorkerGroup> workerGroup_;
    TrainerCursor cur_;
    /**
     * In-memory rollback target and the payload of the write in
     * flight. The writer only reads it, as does a rollback's decode,
     * so the two may overlap; it is reassigned only after a join, and
     * each cadence snapshot is encoded into its storage.
     */
    std::string lastGood_;
    TrainReport report_;
    AnnotatedMutex degradeMutex_; // guards report_.degradedMode: a
                                  // cadence write and a worker death
                                  // may record rungs concurrently
    std::function<void(const BatchRecord &)> observer_;
    bool ran_ = false;
    /** kernels::stats() when run() began (published as a change). */
    kernels::KernelStats kernelsAtStart_;
    /** One-way degradation: checkpoint writes kept failing. */
    bool checkpointingDisabled_ = false;
    /** The background cadence write (at most one in flight). */
    AsyncCell<bool> pendingWrite_;
};

} // namespace cascade

#endif // CASCADE_TRAIN_SESSION_HH
