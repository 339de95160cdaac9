/**
 * @file
 * Worker-level fault domains: sharded multi-worker training.
 *
 * A WorkerGroup partitions each global batch's event slice into K
 * logical shards (train/collective.hh) and distributes them over N
 * fork()ed worker processes, each holding a replica (copy-on-write
 * from the master at start()), joined to the supervisor by
 * CRC-framed SOCK_STREAM socketpairs (util/binio
 * writeFrameFd/readFrameFd). A SIGKILL'd or hung worker is a
 * *survivable fault*: the poll deadline on its reply doubles as its
 * heartbeat, the supervisor declares it dead (Eof = died, Timeout =
 * hung → SIGKILL), recomputes the dead worker's shards on the
 * master's own replica for THIS batch, and folds its shards into the
 * survivors for future batches.
 *
 * Determinism contract (the whole point): a shard's result is a pure
 * function of (replica state, shard id, shard RNG) and the merge is a
 * fixed-order reduction, so per-batch losses and saved model bytes
 * are bit-identical for ANY worker count and ANY death schedule —
 * including mid-epoch kills, whose shards the master recomputes
 * bit-identically. K (--shards) alone defines the trajectory,
 * exactly like the batch size.
 *
 * Master-state invariant behind the recovery path: the master's
 * replica is mutated only by applyMergedUpdate, which runs strictly
 * after every shard result (computed or recomputed) is in. A worker
 * death can therefore never leave the master in a partial state —
 * recovery needs no checkpoint reload, only recompute + fold. On-disk
 * checkpoints hold the master replica only, which is why a sharded
 * checkpoint resumes under any worker count (same K).
 *
 * Degradation ladder rungs reported through the on-degrade hook:
 * "worker-fold" (a death folded shards into survivors) and
 * "worker-local" (all workers dead; the master computes every shard
 * itself — slower, never wrong).
 */

#ifndef CASCADE_TRAIN_SHARD_HH
#define CASCADE_TRAIN_SHARD_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "train/collective.hh"

namespace cascade {

namespace obs {
class MetricsRegistry;
}

/** WorkerGroup wiring. */
struct WorkerGroupOptions
{
    /** Workers computing shards (>= 1). */
    size_t workers = 1;
    /** Logical shard count K; 0 = one shard per worker. */
    size_t shards = 0;
    /** Run seed feeding shardSeed (must equal the model's). */
    uint64_t seed = 0;
    /** Reply deadline per worker compute, ms (heartbeat watchdog). */
    size_t heartbeatMs = 30000;
    /**
     * Worker PID roster path (empty = none). Written atomically with
     * a CRC frame so external chaos tools (tools/chaos_worker_kill)
     * can read it without torn-read races; rewritten after every
     * death, removed at shutdown.
     */
    std::string pidFile;
};

/**
 * N workers over K shards with deterministic merge and worker-death
 * recovery. One instance per TrainingSession run; start() before the
 * first runBatch(), shutdown() (idempotent) when training ends.
 */
class WorkerGroup
{
  public:
    /**
     * @param master the session's authoritative replica — the model
     *               checkpoints, eval and the batcher feedback see.
     *               All references must outlive the group.
     */
    WorkerGroup(TgnnModel &master, const EventSource &data,
                const TemporalAdjacency &adj,
                const WorkerGroupOptions &options,
                obs::MetricsRegistry *metrics);
    ~WorkerGroup();

    WorkerGroup(const WorkerGroup &) = delete;
    WorkerGroup &operator=(const WorkerGroup &) = delete;

    /**
     * Bring the workers up: fork the worker processes (children
     * inherit the master replica copy-on-write, so no state transfer
     * is needed). Call at a quiescent point — after resume restored
     * the master, before the first batch.
     */
    void start();

    /**
     * The sharded model stage for one global batch: distribute the
     * shards of [st, ed), collect (recomputing a dead worker's shards
     * on the master), merge in fixed shard order, broadcast the
     * merged update to every replica and apply it to the master.
     * Returns the master's completed StepResult — a drop-in for
     * TgnnModel::step(..., train=true).
     */
    StepResult runBatch(uint64_t globalBatch, size_t st, size_t ed);

    /**
     * Rebroadcast the master's full training state to every live
     * replica (saveTrainingState blob). Required after any
     * out-of-band master mutation — the numeric guard's rollback
     * restore — which the per-batch merged updates do not cover.
     */
    void resyncReplicas();

    /** Mirror the master's epoch-fresh resetState() on every replica. */
    void resetReplicas();

    /**
     * Stop the workers (graceful shutdown command; a worker that
     * ignores it is SIGKILLed and reaped) and drop the PID roster.
     * Idempotent; also runs from the destructor.
     */
    void shutdown();

    /** Workers still alive (== workers until the first death). */
    size_t aliveWorkers() const;

    /** Worker deaths absorbed so far. */
    size_t deaths() const { return deaths_; }

    /** Shard reassignments performed (one per death). */
    size_t rebalances() const { return rebalances_; }

    /** Resolved logical shard count K. */
    size_t shards() const { return shards_; }

    /**
     * Degradation-ladder hook: invoked with "worker-fold" /
     * "worker-local" when a death downgrades the group, so the
     * session can count the rung like any other ladder transition.
     */
    void
    setOnDegrade(std::function<void(const std::string &)> hook)
    {
        onDegrade_ = std::move(hook);
    }

  private:
    /** One forked worker endpoint as the supervisor sees it. */
    struct Proc
    {
        int fd = -1;    ///< supervisor end of the socketpair
        long pid = -1;  ///< child PID (-1 once reaped)
        bool alive = false;
    };

    /** Shard ids owned by each alive worker under round-robin fold. */
    std::vector<std::vector<uint32_t>> shardAssignment() const;

    /**
     * Compute one shard on master_ — in a worker process, that
     * worker's replica (pure; any replica, any time).
     */
    ShardResult computeShard(uint64_t globalBatch, size_t st, size_t ed,
                             uint32_t shard);

    /** Forked child's command loop; never returns (calls _exit). */
    [[noreturn]] void workerMain(size_t rank, int fd);

    /** Declare worker `rank` dead: SIGKILL (hung case), reap, fold. */
    void declareDead(size_t rank, const char *why);

    /** Send one framed command; false when the worker is gone. */
    bool sendCommand(size_t rank, const std::string &payload);

    void writePidRoster() const;

    TgnnModel &master_;
    const EventSource &data_;
    const TemporalAdjacency &adj_;
    WorkerGroupOptions options_;
    obs::MetricsRegistry *metrics_;

    size_t shards_ = 0; ///< resolved K
    bool started_ = false;
    bool shutdown_ = false;
    size_t deaths_ = 0;
    size_t rebalances_ = 0;

    /** Forked workers by rank. */
    std::vector<Proc> procs_;

    std::function<void(const std::string &)> onDegrade_;
};

} // namespace cascade

#endif // CASCADE_TRAIN_SHARD_HH
