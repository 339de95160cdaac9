#include "train/checkpoint.hh"

#include <utility>

#include "obs/metrics.hh"
#include "util/binio.hh"
#include "util/logging.hh"

namespace cascade {
namespace {

constexpr uint32_t kMagic = 0x4353434b; // "CSCK"
constexpr uint32_t kVersion = 5;

} // namespace

std::string
encodeCheckpoint(const TgnnModel &model, const Batcher &batcher,
                 const TrainerCursor &cursor, std::string storage)
{
    ByteWriter w(std::move(storage));
    w.u32(kMagic);
    w.u32(kVersion);

    w.u64(cursor.epoch);
    w.u64(cursor.st);
    w.u64(cursor.batchIndex);
    w.u64(cursor.globalBatch);
    w.u64(cursor.totalBatches);
    w.u64(cursor.totalEvents);
    w.u64(cursor.epochEvents);
    w.f64(cursor.lossSum);
    w.u64(cursor.completed.size());
    for (const EpochStats &es : cursor.completed) {
        w.f64(es.trainLoss);
        w.u64(es.batches);
        w.f64(es.avgBatchSize);
        w.f64(es.deviceSeconds);
        w.f64(es.stableUpdateRatio);
    }

    w.str(batcher.name());
    // Both state blobs are length-prefixed like ByteWriter::str, but
    // encoded in place so the payload is written once: reserve the
    // length, write the section, patch the length.
    size_t at = w.size();
    w.u64(0);
    batcher.saveState(w);
    w.patchU64(at, w.size() - at - sizeof(uint64_t));
    at = w.size();
    w.u64(0);
    model.saveTrainingState(w);
    w.patchU64(at, w.size() - at - sizeof(uint64_t));
    return w.take();
}

bool
decodeCheckpoint(const std::string &payload, TgnnModel &model,
                 Batcher &batcher, TrainerCursor &cursor)
{
    ByteReader r(payload);
    uint32_t magic = 0, version = 0;
    if (!r.u32(magic) || !r.u32(version)) {
        CASCADE_LOG("checkpoint: payload too short for header");
        return false;
    }
    if (magic != kMagic) {
        CASCADE_LOG("checkpoint: bad magic %08x", magic);
        return false;
    }
    if (version != kVersion) {
        CASCADE_LOG("checkpoint: unsupported format version %u (this "
                    "build reads only v%u; there is no converter)",
                    version, kVersion);
        return false;
    }

    TrainerCursor cur;
    uint64_t epochs = 0;
    if (!r.u64(cur.epoch) || !r.u64(cur.st) || !r.u64(cur.batchIndex) ||
        !r.u64(cur.globalBatch) || !r.u64(cur.totalBatches) ||
        !r.u64(cur.totalEvents) || !r.u64(cur.epochEvents) ||
        !r.f64(cur.lossSum) || !r.u64(epochs)) {
        CASCADE_LOG("checkpoint: truncated cursor section");
        return false;
    }
    if (epochs > cur.epoch) {
        CASCADE_LOG("checkpoint: inconsistent epoch counts");
        return false;
    }
    cur.completed.resize(static_cast<size_t>(epochs));
    for (EpochStats &es : cur.completed) {
        uint64_t batches = 0;
        if (!r.f64(es.trainLoss) || !r.u64(batches) ||
            !r.f64(es.avgBatchSize) || !r.f64(es.deviceSeconds) ||
            !r.f64(es.stableUpdateRatio)) {
            CASCADE_LOG("checkpoint: truncated epoch stats");
            return false;
        }
        es.batches = static_cast<size_t>(batches);
    }

    std::string name;
    ByteReader batcher_blob(nullptr, 0), model_blob(nullptr, 0);
    if (!r.str(name) || !r.sub(batcher_blob) || !r.sub(model_blob)) {
        CASCADE_LOG("checkpoint: truncated state blobs");
        return false;
    }
    if (name != batcher.name()) {
        CASCADE_LOG("checkpoint: batching policy is '%s' but the "
                    "checkpoint was written by '%s'",
                    batcher.name().c_str(), name.c_str());
        return false;
    }

    // Nothing is applied until nothing can fail: check the model
    // section without copying, load the batcher (which applies
    // nothing when it fails), then copy the checked model section.
    if (!model.fitsTrainingState(model_blob)) {
        CASCADE_LOG("checkpoint: model state does not match this "
                    "model configuration");
        return false;
    }
    if (!batcher.loadState(batcher_blob)) {
        CASCADE_LOG("checkpoint: batcher state does not match this "
                    "policy/dataset");
        return false;
    }
    CASCADE_CHECK(model.loadTrainingState(model_blob),
                  "checkpoint: a checked model section failed to load");
    cursor = std::move(cur);
    return true;
}

std::string
checkpointGenerationPath(const std::string &path, size_t gen)
{
    return gen == 0 ? path : path + "." + std::to_string(gen);
}

std::string
checkpointStagePath(const std::string &path)
{
    return path + ".new";
}

std::string
checkpointMarkerPath(const std::string &path)
{
    return path + ".writing";
}

bool
saveCheckpointRotated(const std::string &path,
                      const std::string &payload, size_t keep,
                      obs::MetricsRegistry *metrics)
{
    if (keep == 0)
        keep = 1;

    // 1. Stage the new artifact atomically. A failure here (full
    // disk, injected fault) must not disturb any existing generation.
    const std::string stage = checkpointStagePath(path);
    if (!writeFileAtomic(stage, payload))
        return false;

    // 2. Shift the committed generations one slot older. Every step
    // is a rename of a complete artifact, so a SIGKILL anywhere in
    // the sequence still leaves a loadable newest-valid generation
    // (possibly the stage file, which the recovery scan tries first).
    if (keep > 1 && fileExists(path)) {
        (void)removeFileIfExists(
            checkpointGenerationPath(path, keep - 1));
        for (size_t g = keep - 1; g-- > 1;) {
            const std::string from = checkpointGenerationPath(path, g);
            if (fileExists(from) &&
                !renameFile(from,
                            checkpointGenerationPath(path, g + 1))) {
                CASCADE_LOG("checkpoint: rotating %s failed; "
                            "dropping that generation",
                            from.c_str());
                (void)removeFileIfExists(from);
            }
        }
        if (!renameFile(path, checkpointGenerationPath(path, 1))) {
            CASCADE_LOG("checkpoint: could not rotate %s to "
                        "generation 1; overwriting in place",
                        path.c_str());
        }
        if (metrics)
            metrics->counter("checkpoint.rotations").add(1);
    }

    // 3. Promote the stage to the head slot.
    if (!renameFile(stage, path)) {
        // The staged artifact is complete and the scan tries it
        // first, so data is safe — but report the failed commit.
        return false;
    }

    if (metrics) {
        metrics->counter("checkpoint.saves").add(1);
        metrics->counter("checkpoint.bytes_written")
            .add(payload.size());
    }
    return true;
}

ResumeScan
resumeFromNewestValid(const std::string &path, size_t keep,
                      TgnnModel &model, Batcher &batcher,
                      TrainerCursor &cursor,
                      obs::MetricsRegistry *metrics)
{
    if (keep == 0)
        keep = 1;

    // Candidate order: the stage slot first (it exists only when a
    // commit was cut down mid-rotation, in which case it is the
    // newest complete artifact), then head, then older generations.
    std::vector<std::pair<std::string, size_t>> candidates;
    candidates.emplace_back(checkpointStagePath(path), 0);
    for (size_t g = 0; g < keep; ++g)
        candidates.emplace_back(checkpointGenerationPath(path, g), g);

    ResumeScan scan;
    const std::string stage_file = candidates.front().first;
    bool any_file = false;
    for (const auto &[file, gen] : candidates) {
        if (!fileExists(file))
            continue;
        any_file = true;
        std::string payload;
        if (!readFileValidated(file, payload)) {
            CASCADE_LOG("checkpoint: generation %zu (%s) failed the "
                        "CRC/length check; trying an older one",
                        gen, file.c_str());
            ++scan.corruptSkipped;
            continue;
        }
        if (!decodeCheckpoint(payload, model, batcher, cursor)) {
            CASCADE_LOG("checkpoint: generation %zu (%s) does not "
                        "decode against this run; trying an older one",
                        gen, file.c_str());
            ++scan.corruptSkipped;
            continue;
        }
        scan.outcome = ResumeScan::Outcome::Resumed;
        scan.generation = gen;
        scan.file = file;
        scan.stagedRecovery = file == stage_file;
        break;
    }
    if (scan.stagedRecovery) {
        // A stage-slot win means the previous commit died between
        // writing the staged artifact and promoting it. That is a
        // partial-rotation recovery even when no numbered generation
        // was corrupt — warn and count so it cannot pass silently.
        CASCADE_LOG("warning: resumed from the staged checkpoint %s "
                    "at generation %zu (previous commit was "
                    "interrupted mid-rotation)",
                    scan.file.c_str(), scan.generation);
    }
    if (scan.outcome != ResumeScan::Outcome::Resumed) {
        scan.outcome = any_file ? ResumeScan::Outcome::AllCorrupt
                                : ResumeScan::Outcome::NoCheckpoint;
    }
    if (metrics) {
        // The counter is emitted (zero-valued instrument created) on
        // a staged recovery too, so the metrics summary always shows
        // the partial-rotation path was taken.
        if (scan.corruptSkipped > 0 || scan.stagedRecovery) {
            metrics->counter("checkpoint.corrupt_skipped")
                .add(scan.corruptSkipped);
        }
        if (scan.stagedRecovery)
            metrics->counter("checkpoint.staged_recoveries").add(1);
        if (scan.outcome == ResumeScan::Outcome::Resumed) {
            metrics->gauge("checkpoint.recovered_generation")
                .set(static_cast<double>(scan.generation));
        }
    }
    return scan;
}

} // namespace cascade
