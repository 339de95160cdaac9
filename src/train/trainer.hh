/**
 * @file
 * The training loop (Algorithm 1's outer structure).
 *
 * Drives a TgnnModel over the training range with any Batcher policy,
 * collecting the measurements every evaluation figure needs: wall-
 * clock and modeled device time, per-phase latency breakdown (table
 * building / batch lookup / model compute — Figure 13b), batch-size
 * statistics (Figure 12a), the stable-update ratio (Figure 5) and the
 * final validation loss at the preset base batch size (Figures 11/16).
 *
 * trainModel() is a thin wrapper over TrainingSession
 * (train/session.hh), which decomposes each global batch into named,
 * observable stages. Use TrainingSession directly to attach a
 * MetricsRegistry / TraceRecorder or a per-batch observer. The only
 * supervised stage is the checkpoint write (TrainOptions::retry); its
 * outcome and the degradation rungs taken land in the report's
 * supervised-execution fields.
 *
 * Each measurement field of TrainReport is read out of the session's
 * registry from the one instrument named beside it; epochs, batch
 * counts, averages and the status flags come from the session itself.
 */

#ifndef CASCADE_TRAIN_TRAINER_HH
#define CASCADE_TRAIN_TRAINER_HH

#include <string>
#include <vector>

#include "graph/adjacency.hh"
#include "graph/event.hh"
#include "sim/device_model.hh"
#include "tgnn/model.hh"
#include "train/batcher.hh"
#include "train/numeric_guard.hh"
#include "train/supervisor.hh"

namespace cascade {

/** Per-epoch measurements. */
struct EpochStats
{
    double trainLoss = 0.0;     ///< event-weighted mean batch loss
    size_t batches = 0;
    double avgBatchSize = 0.0;
    /** Measured by this process; not checkpointed, so an epoch
     *  restored on resume reads 0. */
    double wallSeconds = 0.0;
    double deviceSeconds = 0.0;
    double stableUpdateRatio = 0.0; ///< Figure 5 series
};

/** Full-run measurements. */
struct TrainReport
{
    std::vector<EpochStats> epochs;

    /** This process's training wall time (Σ epoch.wall_seconds). */
    double wallSeconds = 0.0;
    /** Modeled device time (Σ device.batch_seconds). */
    double deviceSeconds = 0.0;
    /** Table building + profiling (batcher.preprocess_seconds). */
    double preprocessSeconds = 0.0;
    /** Batch-boundary search (Σ stage.boundary.seconds). */
    double lookupSeconds = 0.0;
    /** Forward/backward/update (Σ stage.model.seconds). */
    double modelSeconds = 0.0;

    double valLoss = 0.0;          ///< final loss at the base batch
    double avgBatchSize = 0.0;
    size_t totalBatches = 0;
    double deviceUtilization = 0.0;///< device.utilization
    double stableUpdateRatio = 0.0;///< last epoch (0 if policy lacks it)

    /** Numeric-guard trips (guard.trips). A trip either rolls back
     *  to the last good snapshot or, with the retry budget spent,
     *  ends the run, so this is also the rollback count. */
    size_t guardTrips = 0;
    /** This run resumed from a checkpoint file. */
    bool resumed = false;
    /** Generation the resume loaded (0 = newest; see resumed;
     *  checkpoint.recovered_generation). */
    size_t resumedGeneration = 0;
    /** Corrupt/mismatched generations skipped while resuming
     *  (checkpoint.corrupt_skipped). */
    size_t corruptSkippedOnResume = 0;
    /** A (simulated) crash cut training short; resume to finish. */
    bool interrupted = false;

    /** @name Supervised-execution accounting (train/supervisor.hh) */
    /** @{ */
    /** Degradation-ladder rungs taken (checkpointing-disabled,
     *  checkpoint-fallback, worker-fold, worker-local;
     *  degrade.transitions). */
    size_t degradations = 0;
    /** Last degradation rung entered: "none" (healthy, full
     *  capability), "checkpointing-disabled", "checkpoint-fallback",
     *  "worker-fold" or "worker-local" (train/shard.hh). */
    std::string degradedMode = "none";
    /** Checkpoint writes gave up and checkpointing was turned off. */
    bool checkpointingDisabled = false;
    /** Checkpoint-write retries, the only supervised stage
     *  (checkpoint.retries). */
    size_t checkpointRetries = 0;
    /** Checkpoint write attempts that failed (checkpoint.failures). */
    size_t checkpointWriteFailures = 0;
    /** @} */

    /** @name Sharded-worker accounting (train/shard.hh) */
    /** @{ */
    /** Worker count the run was configured with (1 = unsharded;
     *  worker.group_size). */
    size_t workers = 1;
    /** Logical shard count K (trajectory-defining; 0 = unsharded;
     *  worker.shards). */
    size_t shards = 0;
    /** Workers that died (SIGKILL, crash) and were folded away; each
     *  death reassigns the dead worker's shards once (worker.deaths). */
    size_t workerDeaths = 0;
    /** @} */

    /** End-to-end modeled latency: preprocessing + device time. */
    double
    totalDeviceSeconds() const
    {
        return preprocessSeconds + deviceSeconds;
    }
};

/** Options controlling a training run. */
struct TrainOptions
{
    size_t epochs = 4;
    /**
     * Validation batch size. The paper evaluates at its preset base
     * batch (900); scaled datasets carry the scaled equivalent in
     * DatasetSpec::baseBatch, whose unscaled default is 100 — hence
     * the default here. Callers must plumb the *same* value used for
     * the batcher (e.g. CascadeBatcher::Options::baseBatch) so
     * training and validation batch sizes agree.
     */
    size_t evalBatch = 100;
    /** Validate after training (needs a validation range). */
    bool validate = true;

    /** Checkpoint file; empty = no on-disk checkpointing. */
    std::string checkpointPath;
    /** Snapshot cadence in global batches (also the rollback grain). */
    size_t checkpointEvery = 50;
    /**
     * Rotating generations to keep on disk (>= 1). The head file is
     * the newest; older generations live at `<path>.1`, `<path>.2`,
     * … and resume scans newest -> oldest past corrupt ones
     * (train/checkpoint.hh).
     */
    size_t checkpointKeep = 3;
    /** Resume from resumePath (falls back to checkpointPath). */
    bool resume = false;
    std::string resumePath;
    /**
     * With resume: if no checkpoint generation exists at all, start
     * fresh instead of dying — the contract a process-level
     * supervisor (tools/chaos_kill) needs to relaunch blindly.
     * Existing-but-all-corrupt checkpoints still fail loudly: silent
     * loss of training history is never acceptable.
     */
    bool resumeIfPossible = false;
    /** Per-batch loss/gradient health checks. */
    NumericGuardOptions guard;
    /** Checkpoint-write retry budget and first backoff delay. */
    RetryOptions retry;

    /**
     * Worker shards (train/shard.hh): number of fork()ed worker
     * processes computing the batch's logical shards. 1 with
     * shards = 0 is the classic unsharded loop; otherwise a NEW
     * deterministic trajectory governed by `shards`, in which a
     * SIGKILL'd worker is a survivable fault.
     */
    size_t workers = 1;
    /**
     * Logical shard count K — trajectory-defining, like the batch
     * size: runs with equal K are bit-identical for ANY worker count.
     * 0 = workers (one shard per worker; then changing workers
     * changes the trajectory).
     */
    size_t shards = 0;
    /**
     * Watchdog deadline for one worker compute reply, in ms. A worker
     * that misses it is declared dead (SIGKILL + fold into
     * survivors).
     */
    size_t workerHeartbeatMs = 30000;
};

/**
 * Run `model` over data[0, train_end) with `batcher`, validating on
 * data[train_end, N). `data` may be any EventSource — a resident
 * vector or an mmap'd event log (out-of-core training).
 */
TrainReport trainModel(TgnnModel &model, const EventSource &data,
                       const TemporalAdjacency &adj, size_t train_end,
                       Batcher &batcher, const TrainOptions &options,
                       DeviceModel *device = nullptr);

} // namespace cascade

#endif // CASCADE_TRAIN_TRAINER_HH
