#include "train/session.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "tensor/kernels.hh"
#include "train/shard.hh"
#include "util/binio.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace cascade {

namespace {

/**
 * One stage execution: a trace span plus a sample in the stage's
 * seconds histogram, both closed on scope exit.
 */
class StageScope
{
  public:
    StageScope(obs::Histogram &hist, obs::TraceRecorder &trace,
               const char *name)
        : hist_(hist), span_(trace.span(name, "stage"))
    {}

    ~StageScope()
    {
        span_.end();
        hist_.record(timer_.seconds());
    }

    StageScope(const StageScope &) = delete;
    StageScope &operator=(const StageScope &) = delete;

  private:
    obs::Histogram &hist_;
    Timer timer_;
    obs::TraceRecorder::Span span_;
};

} // namespace

TrainingSession::TrainingSession(TgnnModel &model,
                                 const EventSource &data,
                                 const TemporalAdjacency &adj,
                                 size_t train_end, Batcher &batcher,
                                 const TrainOptions &options,
                                 DeviceModel *device,
                                 obs::MetricsRegistry *metrics,
                                 obs::TraceRecorder *trace)
    : model_(model), data_(data), adj_(adj), trainEnd_(train_end),
      batcher_(batcher), options_(options), device_(device),
      guard_(options.guard)
{
    CASCADE_CHECK(trainEnd_ > 0 && trainEnd_ <= data_.size(),
                  "TrainingSession: bad train range");
    if (!device_) {
        ownedDevice_ = std::make_unique<DeviceModel>();
        device_ = ownedDevice_.get();
    }
    if (metrics) {
        metrics_ = metrics;
    } else {
        ownedMetrics_ = std::make_unique<obs::MetricsRegistry>();
        metrics_ = ownedMetrics_.get();
    }
    if (trace) {
        trace_ = trace;
    } else {
        ownedTrace_ = std::make_unique<obs::TraceRecorder>();
        trace_ = ownedTrace_.get();
    }

    supervisor_ =
        std::make_unique<Supervisor>(options_.retry, *metrics_, trace_);

    CASCADE_CHECK(options_.workers >= 1,
                  "TrainingSession: --workers must be >= 1");
    if (options_.workers > 1 || options_.shards > 0) {
        WorkerGroupOptions wo;
        wo.workers = options_.workers;
        wo.shards = options_.shards;
        wo.seed = model_.seed();
        wo.heartbeatMs = options_.workerHeartbeatMs;
        if (!options_.checkpointPath.empty())
            wo.pidFile = options_.checkpointPath + ".workers";
        workerGroup_ = std::make_unique<WorkerGroup>(
            model_, data_, adj_, wo, metrics_);
        workerGroup_->setOnDegrade([this](const std::string &mode) {
            recordDegradation(mode);
        });
    }
}

TrainingSession::~TrainingSession()
{
    // A write still in flight (the run threw) records into the
    // registry and reads lastGood_: finish it before either goes.
    pendingWrite_.drop();
}

void
TrainingSession::initOrResume()
{
    Timer t;
    auto span = trace_->span("init", "session");

    // A leftover write-window marker means the previous process died
    // (SIGKILL, power loss) inside a checkpoint commit. The rotation
    // protocol guarantees a loadable generation regardless; the
    // marker is evidence for the chaos harness and the operator.
    if (!options_.checkpointPath.empty()) {
        const std::string marker =
            checkpointMarkerPath(options_.checkpointPath);
        if (fileExists(marker)) {
            CASCADE_LOG("stale checkpoint write marker %s: previous "
                        "process died inside the write window",
                        marker.c_str());
            metrics_->counter("checkpoint.dirty_marker").add(1);
            if (!removeFileIfExists(marker))
                CASCADE_LOG("could not remove %s", marker.c_str());
        }
    }

    if (options_.resume) {
        const std::string &path = options_.resumePath.empty()
            ? options_.checkpointPath : options_.resumePath;
        CASCADE_CHECK(!path.empty(),
                      "TrainingSession: resume requested without a "
                      "checkpoint path");
        const ResumeScan scan = resumeFromNewestValid(
            path, options_.checkpointKeep, model_, batcher_, cur_,
            metrics_);
        if (scan.outcome == ResumeScan::Outcome::NoCheckpoint &&
            options_.resumeIfPossible) {
            CASCADE_LOG("no checkpoint at %s yet; starting fresh",
                        path.c_str());
            lastGood_ = encodeCheckpoint(model_, batcher_, cur_);
        } else if (scan.outcome != ResumeScan::Outcome::Resumed) {
            CASCADE_LOG("cannot resume from %s (%s)", path.c_str(),
                        scan.outcome ==
                                ResumeScan::Outcome::NoCheckpoint
                            ? "no generation file exists"
                            : "every generation is corrupt or "
                              "mismatched");
            CASCADE_FATAL("checkpoint file missing or corrupt");
        } else {
            CASCADE_LOG("resumed at epoch %llu batch %llu (event "
                        "%llu, generation %zu)",
                        (unsigned long long)cur_.epoch,
                        (unsigned long long)cur_.batchIndex,
                        (unsigned long long)cur_.st, scan.generation);
            // The degradation ladder's durability rung: the newest
            // generation was unusable and an older one carried the
            // run — or the run recovered from the staged artifact of
            // an interrupted rotation. Loudly accounted, never fatal.
            if (scan.generation > 0 || scan.corruptSkipped > 0 ||
                scan.stagedRecovery) {
                recordDegradation("checkpoint-fallback");
            }
            lastGood_ = encodeCheckpoint(model_, batcher_, cur_);
            report_.resumed = true;
            metrics_->counter("session.resumes").add(1);
        }
    } else {
        // Rollback target for trips before the first cadence
        // snapshot: the pristine start-of-run state.
        lastGood_ = encodeCheckpoint(model_, batcher_, cur_);
    }
    span.end();
    metrics_->gauge("session.init_seconds").set(t.seconds());
}

TrainingSession::BatchOutcome
TrainingSession::runBatch()
{
    auto batch_span = trace_->span("batch", "batch");
    const size_t st = static_cast<size_t>(cur_.st);

    // Stage `boundary`: the batch-formation decision (for Cascade
    // policies, the Algorithm 3 lookup; the report's lookupSeconds).
    // A failed dependency-table build (Cascade_EX's prefetch surfaces
    // its exception here) propagates out of run() like any other
    // stage's exception: the build is deterministic, so a retry would
    // fail the same way.
    size_t ed = 0;
    {
        StageScope stage(metrics_->histogram("stage.boundary.seconds"),
                         *trace_, "boundary");
        ed = batcher_.next(st);
    }
    CASCADE_CHECK(ed > st && ed <= trainEnd_,
                  "batcher returned a bad range");

    // Stage `model`: forward/backward/update.
    StepResult r;
    {
        StageScope stage(metrics_->histogram("stage.model.seconds"),
                         *trace_, "model");
        r = workerGroup_
                ? workerGroup_->runBatch(
                      static_cast<uint64_t>(cur_.globalBatch), st, ed)
                : model_.step(data_, adj_, st, ed, true);
    }
    const uint64_t gb = cur_.globalBatch;
    if (fault::maybeInjectNan(gb, r.loss)) {
        CASCADE_LOG("fault injection: NaN loss at batch %llu",
                    (unsigned long long)gb);
    }

    // Stage `guard`: numeric admission; a trip restores the last good
    // snapshot. The tripped batch contributes nothing: no device
    // charge, no feedback, no loss accounting.
    {
        StageScope stage(metrics_->histogram("stage.guard.seconds"),
                         *trace_, "guard");
        if (!guard_.admit(r.loss, r.gradNorm)) {
            CASCADE_LOG("numeric guard tripped at batch %llu: %s",
                        (unsigned long long)gb,
                        guard_.lastReason().c_str());
            if (guard_.exhausted()) {
                CASCADE_FATAL("numeric guard: retry budget "
                              "exhausted; training keeps "
                              "diverging after rollbacks");
            }
            CASCADE_CHECK(decodeCheckpoint(lastGood_, model_, batcher_,
                                           cur_),
                          "rollback snapshot failed to apply");
            batcher_.onNumericRollback();
            // Replicas only ever advance via the per-batch merged
            // updates; an out-of-band master restore must be
            // rebroadcast or they silently diverge.
            if (workerGroup_)
                workerGroup_->resyncReplicas();
            CASCADE_LOG("rolled back to epoch %llu batch %llu",
                        (unsigned long long)cur_.epoch,
                        (unsigned long long)cur_.batchIndex);
            return BatchOutcome::RolledBack;
        }
    }

    // Stage `feedback`: device charge plus the policy's runtime
    // feedback (SG-Filter flags, ABS loss schedule).
    {
        StageScope stage(metrics_->histogram("stage.feedback.seconds"),
                         *trace_, "feedback");
        metrics_->histogram("device.batch_seconds")
            .record(device_->charge(r.numEvents, r.workRows,
                                    r.sampledNeighbors));

        BatchFeedback fb;
        fb.batchIndex = static_cast<size_t>(cur_.batchIndex);
        fb.st = st;
        fb.ed = ed;
        fb.loss = r.loss;
        fb.updatedNodes = &r.updatedNodes;
        fb.memCosine = &r.memCosine;
        batcher_.onBatchDone(fb);
    }

    cur_.lossSum += r.loss * r.numEvents;
    cur_.epochEvents += r.numEvents;
    cur_.totalEvents += r.numEvents;
    ++cur_.batchIndex;
    ++cur_.totalBatches;
    ++cur_.globalBatch;
    cur_.st = ed;
    metrics_->counter("train.sampled_neighbors").add(r.sampledNeighbors);
    metrics_->histogram("train.batch_size")
        .record(static_cast<double>(r.numEvents));
    // Out-of-core: the trained prefix is no longer hot (neighbor
    // sampling re-faults cold pages on demand), so an mmap-backed
    // source may drop it and bound resident memory. Advisory no-op
    // for resident sources.
    data_.hintConsumed(static_cast<EventIdx>(ed));

    if (observer_) {
        BatchRecord rec;
        rec.globalBatch = gb;
        rec.epoch = static_cast<size_t>(cur_.epoch);
        rec.st = st;
        rec.ed = ed;
        rec.loss = r.loss;
        rec.numEvents = r.numEvents;
        observer_(rec);
    }

    snapshotIfDue();

    if (fault::crashAfter(gb)) {
        CASCADE_LOG("fault injection: simulated crash after "
                    "batch %llu",
                    (unsigned long long)gb);
        report_.interrupted = true;
        return BatchOutcome::Crashed;
    }
    return BatchOutcome::Admitted;
}

void
TrainingSession::snapshotIfDue()
{
    if (options_.checkpointEvery == 0 ||
        cur_.globalBatch % options_.checkpointEvery != 0) {
        return;
    }
    // Stage `checkpoint`: cadence snapshot (also the rollback grain).
    // The in-memory snapshot is always taken — rollback must keep
    // working even when the on-disk write path has been degraded.
    // The stage times the training thread only: the wait for the
    // previous write, the encode and the launch. The write itself is
    // timed on its own thread as `checkpoint.write_seconds`.
    StageScope stage(metrics_->histogram("stage.checkpoint.seconds"),
                     *trace_, "checkpoint");
    joinPendingWrite();
    // Encoded into the previous snapshot's storage: no allocation.
    lastGood_ =
        encodeCheckpoint(model_, batcher_, cur_, std::move(lastGood_));
    if (options_.checkpointPath.empty())
        return;
    // No copy: the writer reads lastGood_, which stays unchanged
    // until the next cadence point joins this write.
    pendingWrite_.launch([this] {
        StageScope write(metrics_->histogram("checkpoint.write_seconds"),
                         *trace_, "checkpoint-write");
        writeCheckpoint(lastGood_, "checkpoint");
        return true;
    });
}

void
TrainingSession::joinPendingWrite()
{
    if (pendingWrite_.active())
        pendingWrite_.collect();
}

void
TrainingSession::writeCheckpoint(const std::string &payload,
                                 const char *what)
{
    if (options_.checkpointPath.empty())
        return;
    if (checkpointingDisabled_) {
        metrics_->counter("checkpoint.skipped").add(1);
        return;
    }
    // Write-window marker: present exactly while the commit (and any
    // injected checkpoint latency) is in flight. A process killed
    // inside this window leaves the marker behind — the chaos harness
    // uses that to prove its kills landed mid-write, and the next
    // launch logs/counts the dirty marker.
    const std::string marker =
        checkpointMarkerPath(options_.checkpointPath);
    if (!touchFile(marker))
        CASCADE_LOG("cannot create write marker %s", marker.c_str());
    const double inject_ms = fault::checkpointLatencyMs();
    if (inject_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(inject_ms));
    }
    const bool ok = supervisor_->runSupervised("checkpoint", [&] {
        return saveCheckpointRotated(options_.checkpointPath, payload,
                                     options_.checkpointKeep,
                                     metrics_);
    });
    if (!removeFileIfExists(marker))
        CASCADE_LOG("cannot remove write marker %s", marker.c_str());
    if (!ok) {
        // Checkpointing is best-effort durability; a persistently
        // full disk must not kill a healthy run. One-way: later
        // cadence points skip straight to `checkpoint.skipped`.
        checkpointingDisabled_ = true;
        report_.checkpointingDisabled = true;
        recordDegradation("checkpointing-disabled");
        CASCADE_LOG("%s write to %s kept failing; on-disk "
                    "checkpointing disabled, training continues",
                    what, options_.checkpointPath.c_str());
    }
}

void
TrainingSession::recordDegradation(const std::string &mode)
{
    {
        LockGuard lock(degradeMutex_);
        report_.degradedMode = mode;
    }
    metrics_->counter("degrade.transitions").add(1);
    trace_->span("degrade-" + mode, "supervisor").end();
    CASCADE_LOG("degradation ladder: entered '%s' mode",
                mode.c_str());
}

void
TrainingSession::finishEpoch(double epoch_wall, double dev_before)
{
    EpochStats es;
    es.batches = static_cast<size_t>(cur_.batchIndex);
    es.trainLoss =
        cur_.epochEvents ? cur_.lossSum / cur_.epochEvents : 0.0;
    es.avgBatchSize = cur_.batchIndex
        ? static_cast<double>(cur_.epochEvents) / cur_.batchIndex
        : 0.0;
    es.wallSeconds = epoch_wall;
    es.deviceSeconds = device_->totalSeconds() - dev_before;
    es.stableUpdateRatio = batcher_.stableUpdateRatio();
    cur_.completed.push_back(es);
    report_.stableUpdateRatio = batcher_.stableUpdateRatio();
    metrics_->histogram("epoch.wall_seconds").record(epoch_wall);

    ++cur_.epoch;
    cur_.st = 0;
    cur_.batchIndex = 0;
    cur_.lossSum = 0.0;
    cur_.epochEvents = 0;
}

void
TrainingSession::assembleReport()
{
    // Stage `eval`: the post-training validation pass.
    if (!report_.interrupted && options_.validate &&
        trainEnd_ < data_.size()) {
        StageScope stage(metrics_->histogram("stage.eval.seconds"),
                         *trace_, "eval");
        report_.valLoss = model_.evalLoss(data_, adj_, trainEnd_,
                                          data_.size(),
                                          options_.evalBatch);
    }

    // Publish the components' end-of-run state. They hold no
    // instruments; after eval, so the kernel counters cover it too.
    obs::MetricsRegistry &m = *metrics_;
    m.counter("guard.trips").add(guard_.trips());
    m.gauge("device.utilization").set(device_->utilization());
    m.gauge("batcher.preprocess_seconds")
        .set(batcher_.preprocessSeconds());
    m.gauge("batcher.state_bytes")
        .set(static_cast<double>(batcher_.stateBytes()));
    m.gauge("model.parameter_bytes")
        .set(static_cast<double>(model_.parameterBytes()));
    m.gauge("model.state_bytes")
        .set(static_cast<double>(model_.stateBytes()));
    const kernels::KernelStats k = kernels::stats();
    m.counter("kernels.gemm.calls")
        .add(k.gemmCalls - kernelsAtStart_.gemmCalls);
    m.counter("kernels.gemm.flops")
        .add(k.gemmFlops - kernelsAtStart_.gemmFlops);
    m.counter("kernels.elementwise.calls")
        .add(k.elementwiseCalls - kernelsAtStart_.elementwiseCalls);
    m.counter("kernels.pool.hits")
        .add(k.poolHits - kernelsAtStart_.poolHits);
    m.counter("kernels.pool.misses")
        .add(k.poolMisses - kernelsAtStart_.poolMisses);

    // Session facts without an instrument of their own.
    report_.epochs = cur_.completed;
    report_.totalBatches = static_cast<size_t>(cur_.totalBatches);
    report_.avgBatchSize = cur_.totalBatches
        ? static_cast<double>(cur_.totalEvents) / cur_.totalBatches
        : 0.0;
    m.gauge("train.avg_batch_size").set(report_.avgBatchSize);
    m.gauge("train.stable_update_ratio").set(report_.stableUpdateRatio);
    m.gauge("train.val_loss").set(report_.valLoss);

    // Every measurement field is read back from its one instrument.
    // Wall time covers this process's epochs only: checkpoints carry
    // no wall time, so equal trajectories write equal bytes.
    const auto count = [&m](const char *name) -> size_t {
        const obs::Counter *c = m.findCounter(name);
        return c ? static_cast<size_t>(c->value()) : 0;
    };
    const auto gauge = [&m](const char *name, double absent) {
        const obs::Gauge *g = m.findGauge(name);
        return g ? g->value() : absent;
    };
    const auto sum = [&m](const char *name) {
        const obs::Histogram *h = m.findHistogram(name);
        return h ? h->sum() : 0.0;
    };
    report_.modelSeconds = sum("stage.model.seconds");
    report_.lookupSeconds = sum("stage.boundary.seconds");
    report_.wallSeconds = sum("epoch.wall_seconds");
    report_.deviceSeconds = sum("device.batch_seconds");
    report_.deviceUtilization = gauge("device.utilization", 0.0);
    report_.preprocessSeconds = gauge("batcher.preprocess_seconds", 0.0);
    report_.guardTrips = count("guard.trips");
    report_.checkpointRetries = count("checkpoint.retries");
    report_.checkpointWriteFailures = count("checkpoint.failures");
    report_.degradations = count("degrade.transitions");
    report_.workers =
        static_cast<size_t>(gauge("worker.group_size", 1.0));
    report_.shards = static_cast<size_t>(gauge("worker.shards", 0.0));
    report_.workerDeaths = count("worker.deaths");
    report_.resumedGeneration = static_cast<size_t>(
        gauge("checkpoint.recovered_generation", 0.0));
    report_.corruptSkippedOnResume = count("checkpoint.corrupt_skipped");
}

TrainReport
TrainingSession::run()
{
    CASCADE_CHECK(!ran_, "TrainingSession::run: already ran");
    ran_ = true;
    kernelsAtStart_ = kernels::stats();

    initOrResume();

    // Bring the worker shards up at this quiescent point: the master
    // replica is final (resume applied), so forked children inherit
    // it copy-on-write.
    if (workerGroup_)
        workerGroup_->start();

    auto run_span = trace_->span("train", "session");
    while (cur_.epoch < options_.epochs) {
        if (cur_.st == 0 && cur_.batchIndex == 0) {
            // Fresh epoch. Both resets are deterministic, so a replay
            // after rollback (or a resume) retraces the exact
            // trajectory of the uninterrupted run.
            model_.resetState();
            batcher_.reset();
            if (workerGroup_)
                workerGroup_->resetReplicas();
        }
        auto epoch_span = trace_->span("epoch", "session");
        Timer epoch_timer;
        const double dev_before = device_->totalSeconds();
        bool rolled_back = false;

        while (cur_.st < trainEnd_) {
            const BatchOutcome out = runBatch();
            if (out == BatchOutcome::RolledBack) {
                rolled_back = true;
                break;
            }
            if (out == BatchOutcome::Crashed)
                break;
        }
        if (rolled_back)
            continue; // re-enter the loop at the restored cursor
        if (report_.interrupted)
            break;

        finishEpoch(epoch_timer.seconds(), dev_before);
    }
    run_span.end();
    // The last cadence write lands before run() returns — also on an
    // injected crash, whose generation must be on disk — and before
    // the final checkpoint rotates generations or the report reads
    // the write counters.
    joinPendingWrite();

    // Workers are only needed for training batches; stop them before
    // the final checkpoint and validation (master state is
    // authoritative, so nothing is lost).
    if (workerGroup_)
        workerGroup_->shutdown();

    // Final checkpoint (before validation advances the memories) so a
    // finished run can be extended with more epochs later.
    if (!report_.interrupted && !options_.checkpointPath.empty() &&
        options_.checkpointEvery > 0) {
        auto span = trace_->span("final-checkpoint", "session");
        writeCheckpoint(encodeCheckpoint(model_, batcher_, cur_),
                        "final checkpoint");
    }

    assembleReport();
    return report_;
}

} // namespace cascade
