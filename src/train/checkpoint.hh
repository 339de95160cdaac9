/**
 * @file
 * Full training checkpoints (crash-consistent resume).
 *
 * A TrainingCheckpoint captures everything a bit-identical mid-run
 * resume needs: model parameters, Adam moments, the model RNG, node
 * memory and mailbox (TgnnModel::saveTrainingState), the batching
 * policy's adaptive state (Batcher::saveState — for Cascade that is
 * the ABS schedule and SG-Filter flags; the TG-Diffuser's lookup state
 * is rebuilt from the batch start) and the
 * trainer's own cursor (epoch, batch position, running loss sums and
 * finished-epoch stats). Restarting from a checkpoint replays the
 * exact trajectory the uninterrupted run would have taken; only
 * wall-clock measurements differ. Wall time is not part of the
 * payload, so two runs of one trajectory write identical bytes.
 *
 * On-disk framing (written through util/binio.hh, so the file also
 * carries a CRC32 footer and is committed atomically):
 *
 *   u32 magic "CSCK"   u32 version (4; other versions are refused)
 *   cursor: u64 epoch, st, batchIndex, globalBatch, totalBatches,
 *           totalEvents, epochEvents; f64 lossSum
 *   u64 #completed epochs, then per epoch the EpochStats fields
 *           except wallSeconds (restored epochs read 0)
 *   str batcher name (validated against the live policy on load)
 *   str batcher state blob
 *   str model state blob
 *
 * Decoding stages every section before applying any: a truncated,
 * corrupt or mismatched checkpoint leaves the model, optimizer and
 * batcher untouched.
 *
 * Generations (crash survival beyond one file): a checkpoint path
 * `ck.bin` is the head of a rotating family —
 *
 *   ck.bin.new      staging slot (complete artifact, mid-commit)
 *   ck.bin          newest committed generation
 *   ck.bin.1 ...    older generations, ck.bin.(keep-1) the oldest
 *   ck.bin.writing  write-window marker (present only while a
 *                   checkpoint commit is in flight; a leftover marker
 *                   on startup means the previous process died
 *                   mid-write)
 *
 * saveCheckpointRotated commits write-then-rotate: the new artifact
 * is staged atomically at `.new` first, and only a *successful* stage
 * shifts the older generations — a persistently failing disk can
 * never rotate good history off the end. At every instant each
 * generation file is either absent or a complete CRC-framed
 * artifact, so a SIGKILL at any point leaves at least the previous
 * generation loadable. resumeFromNewestValid scans newest → oldest
 * (.new, head, .1, …), skipping generations whose CRC/length or
 * decode validation fails (`checkpoint.corrupt_skipped`), and reports
 * which generation won (`checkpoint.recovered_generation`).
 */

#ifndef CASCADE_TRAIN_CHECKPOINT_HH
#define CASCADE_TRAIN_CHECKPOINT_HH

#include <string>
#include <vector>

#include "tgnn/model.hh"
#include "train/batcher.hh"
#include "train/trainer.hh"
#include "util/determinism.hh"

namespace cascade {

namespace obs {
class MetricsRegistry;
}

/** Mid-run position of the training loop. */
struct TrainerCursor
{
    uint64_t epoch = 0;       ///< current epoch index
    uint64_t st = 0;          ///< next batch's first event
    uint64_t batchIndex = 0;  ///< batches finished this epoch
    uint64_t globalBatch = 0; ///< batches finished across epochs
    uint64_t totalBatches = 0;
    uint64_t totalEvents = 0;
    uint64_t epochEvents = 0;
    double lossSum = 0.0;     ///< running event-weighted loss (exact)
    std::vector<EpochStats> completed;
};

/** Serialize model + batcher + cursor into a checkpoint payload. */
std::string encodeCheckpoint(const TgnnModel &model,
                             const Batcher &batcher,
                             const TrainerCursor &cursor);

/**
 * Apply a payload produced by encodeCheckpoint. Validates the magic,
 * version and batcher identity and stages all state before any of it
 * is applied.
 * @return false on corruption or mismatch (targets untouched)
 */
bool decodeCheckpoint(const std::string &payload, TgnnModel &model,
                      Batcher &batcher, TrainerCursor &cursor);

/** @name Rotating checkpoint generations */
/** @{ */

/** Path of generation `gen` (0 = `path` itself, k = `path.k`). */
std::string checkpointGenerationPath(const std::string &path,
                                     size_t gen);
/** Staging slot a new generation is committed through (`path.new`). */
std::string checkpointStagePath(const std::string &path);
/** Write-window marker (`path.writing`). */
std::string checkpointMarkerPath(const std::string &path);

/**
 * Commit `payload` as the newest generation, keeping up to `keep`
 * older generations (keep >= 1; 1 = the head file only, the
 * pre-generation behaviour). Stage-then-rotate: the artifact lands
 * atomically in the `.new` slot first; only on success are older
 * generations shifted (`path` -> `path.1` -> ... , the oldest
 * dropped) and the stage renamed to `path`. A failed write leaves
 * every existing generation untouched. Each generation is one
 * CRC-framed file; nothing else records the family. Counts
 * `checkpoint.saves` / `checkpoint.bytes_written` /
 * `checkpoint.rotations`; a failed commit returns false, and the
 * session's Supervisor counts it as `checkpoint.failures`.
 */
CASCADE_TRAJECTORY
bool saveCheckpointRotated(const std::string &path,
                           const std::string &payload, size_t keep,
                           obs::MetricsRegistry *metrics = nullptr);

/** Outcome of a newest-to-oldest recovery scan. */
struct ResumeScan
{
    enum class Outcome
    {
        Resumed,      ///< a generation decoded and was applied
        NoCheckpoint, ///< no generation file exists at all
        AllCorrupt    ///< files exist, none survived validation
    };
    Outcome outcome = Outcome::NoCheckpoint;
    /** Generation that won (0 = newest). Stage counts as 0. */
    size_t generation = 0;
    /** Generations skipped for corruption/mismatch before the win. */
    size_t corruptSkipped = 0;
    /**
     * Recovery landed on the staged `ck.bin.new` artifact: the
     * previous process died mid-rotation after writing the stage file
     * but before promoting it. A partial-rotation recovery — visible
     * in the summary even when corruptSkipped is 0 (the interrupted
     * rotation may have left every numbered generation intact).
     */
    bool stagedRecovery = false;
    /** File the run resumed from (empty unless Resumed). */
    std::string file;
};

/**
 * Scan the generation family newest -> oldest and resume from the
 * first generation that passes both the CRC/length check and
 * decodeCheckpoint's structural validation; corrupt or mismatched
 * generations are skipped and counted (`checkpoint.corrupt_skipped`),
 * and the winning generation index is published as the
 * `checkpoint.recovered_generation` gauge. Model/batcher/cursor are
 * untouched unless the outcome is Resumed.
 */
ResumeScan resumeFromNewestValid(const std::string &path, size_t keep,
                                 TgnnModel &model, Batcher &batcher,
                                 TrainerCursor &cursor,
                                 obs::MetricsRegistry *metrics = nullptr);

/** @} */

} // namespace cascade

#endif // CASCADE_TRAIN_CHECKPOINT_HH
