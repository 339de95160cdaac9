/**
 * @file
 * Deterministic shard collective for multi-worker training.
 *
 * A global batch [st, ed) is split into K contiguous event slices
 * (logical shards). Each shard's forward/backward runs against a
 * bit-identical model replica with a shard-private RNG seeded from
 * (seed, globalBatch, shard), so a shard's result is a pure function
 * of the replica state and the shard id — any worker, or the master
 * after a worker death, recomputes it bit-identically.
 *
 * The collective merges shard results in FIXED shard order 0..K-1
 * (event-weighted loss/accuracy, elementwise double-accumulated
 * gradient sum), the same fixed-reduction-order contract the
 * blocked GEMM already honors: the merged update — and
 * therefore the whole trajectory and the saved model bytes — depends
 * only on K, never on how many workers computed the shards or in
 * which order their results arrived.
 *
 * K is trajectory-defining configuration (like the batch size): runs
 * with equal K are bit-identical across any worker count; runs with
 * different K are different trajectories.
 */

#ifndef CASCADE_TRAIN_COLLECTIVE_HH
#define CASCADE_TRAIN_COLLECTIVE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "tgnn/model.hh"
#include "util/binio.hh"
#include "util/determinism.hh"

namespace cascade {

/**
 * Event slice of shard `s` within batch [st, ed): the contiguous
 * range [st + s*b/K, st + (s+1)*b/K). Slices partition the batch in
 * order; slices may be empty when b < K.
 */
std::pair<size_t, size_t> shardSlice(size_t st, size_t ed,
                                     size_t shards, size_t s);

/**
 * Seed for shard `shard`'s sampling RNG in batch `globalBatch`
 * (splitmix64-style mixing). Depends only on the run seed, the batch
 * and the shard id — never on workers or scheduling.
 */
uint64_t shardSeed(uint64_t seed, uint64_t globalBatch, size_t shard);

/** One shard's forward/backward output, ready for the collective. */
struct ShardResult
{
    uint32_t shard = 0;
    double loss = 0.0;           ///< mean loss over the slice
    size_t numEvents = 0;        ///< slice size
    double rankAccuracy = 0.0;
    size_t workRows = 0;
    size_t sampledNeighbors = 0;
    /** Flat gradients in parameters() order (collectGradients). */
    std::vector<float> grads;
    /** The slice's deferred memory/mailbox mutation. */
    TgnnModel::PendingWriteback writeback;
};

/**
 * The merged per-batch update every replica (master included)
 * applies identically: event-weighted merged gradients plus the
 * shard writebacks in shard order.
 */
struct MergedUpdate
{
    /** Merged accounting; updatedNodes/memCosine are filled by
     *  applyMergedUpdate from the writebacks. */
    StepResult result;
    /** Event-weighted gradient sum (parameters() order). */
    std::vector<float> grads;
    /** Shard writebacks, ascending shard id. */
    std::vector<TgnnModel::PendingWriteback> writebacks;
};

/**
 * Reduce shard results into one update. `results` may arrive in any
 * order (workers finish when they finish); the reduction sorts by
 * shard id and accumulates in that fixed order, so the output is
 * bit-identical for any worker count and completion schedule.
 * Shards with empty slices are simply absent.
 */
CASCADE_TRAJECTORY
MergedUpdate mergeShardResults(std::vector<ShardResult> results);

/**
 * Apply a merged update to one replica: scatter + optimizer step,
 * then the shard writebacks in ascending shard order (later shards
 * win node-row collisions; messages generate in event order because
 * slices are contiguous). Returns the completed StepResult with the
 * concatenated updatedNodes/memCosine feedback.
 *
 * Every replica in a worker group applies the SAME MergedUpdate, so
 * bit-identical replicas stay bit-identical.
 */
CASCADE_TRAJECTORY
StepResult applyMergedUpdate(TgnnModel &model, const EventSource &data,
                             MergedUpdate &update);

/** @name Wire format (socketpair frames between supervisor/workers) */
/** @{ */
void writeShardResult(ByteWriter &w, const ShardResult &r);
bool readShardResult(ByteReader &r, ShardResult &out);
void writeMergedUpdate(ByteWriter &w, const MergedUpdate &u);
bool readMergedUpdate(ByteReader &r, MergedUpdate &out);
/** @} */

} // namespace cascade

#endif // CASCADE_TRAIN_COLLECTIVE_HH
