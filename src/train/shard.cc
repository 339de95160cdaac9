#include "train/shard.hh"

#include <algorithm>
#include <thread>

#include "obs/metrics.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/timer.hh"

#include <csignal>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace cascade {

namespace {

/** Supervisor -> worker commands / worker -> supervisor replies.
 *  Every frame's payload starts with one of these as a u32. */
constexpr uint32_t kCmdCompute = 1;  ///< gb, st, ed, shard ids
constexpr uint32_t kRspShards = 2;   ///< count, ShardResult...
constexpr uint32_t kCmdApply = 3;    ///< MergedUpdate
constexpr uint32_t kRspAck = 4;      ///< empty
constexpr uint32_t kCmdReset = 5;    ///< epoch-fresh resetState
constexpr uint32_t kCmdSync = 6;     ///< full training-state blob
constexpr uint32_t kCmdShutdown = 7; ///< ack then _exit(0)

/** Ack deadline for non-compute commands (apply/reset/sync). These
 *  never block on another worker, so a miss means the worker is
 *  gone or wedged — use the same heartbeat deadline as compute. */
int
ackDeadline(const WorkerGroupOptions &o)
{
    return static_cast<int>(o.heartbeatMs);
}

} // namespace

WorkerGroup::WorkerGroup(TgnnModel &master, const EventSource &data,
                         const TemporalAdjacency &adj,
                         const WorkerGroupOptions &options,
                         obs::MetricsRegistry *metrics)
    : master_(master), data_(data), adj_(adj), options_(options),
      metrics_(metrics)
{
    CASCADE_CHECK(options_.workers >= 1,
                  "WorkerGroup: need at least one worker");
    shards_ = options_.shards > 0 ? options_.shards : options_.workers;
}

WorkerGroup::~WorkerGroup()
{
    shutdown();
}

size_t
WorkerGroup::aliveWorkers() const
{
    size_t n = 0;
    for (const Proc &p : procs_)
        n += p.alive ? 1 : 0;
    return n;
}

std::vector<std::vector<uint32_t>>
WorkerGroup::shardAssignment() const
{
    std::vector<std::vector<uint32_t>> assign(options_.workers);
    std::vector<size_t> alive;
    for (size_t rank = 0; rank < options_.workers; ++rank) {
        if (procs_[rank].alive)
            alive.push_back(rank);
    }
    if (alive.empty())
        return assign; // worker-local: the master computes everything
    // Round-robin fold over the ALIVE ranks: when a worker dies its
    // shards redistribute across the survivors, and because a shard's
    // result does not depend on which replica computes it, the fold
    // changes load only — never the trajectory.
    for (uint32_t s = 0; s < static_cast<uint32_t>(shards_); ++s)
        assign[alive[s % alive.size()]].push_back(s);
    return assign;
}

ShardResult
WorkerGroup::computeShard(uint64_t globalBatch, size_t st, size_t ed,
                          uint32_t shard)
{
    const auto slice = shardSlice(st, ed, shards_, shard);
    Rng rng(shardSeed(options_.seed, globalBatch, shard));
    TgnnModel::Forward f = master_.stepForwardWithRng(
        data_, adj_, slice.first, slice.second, rng);
    ShardResult r;
    r.shard = shard;
    r.loss = f.result.loss;
    r.numEvents = f.result.numEvents;
    r.rankAccuracy = f.result.rankAccuracy;
    r.workRows = f.result.workRows;
    r.sampledNeighbors = f.result.sampledNeighbors;
    r.grads = master_.collectGradients(f);
    r.writeback = std::move(f.writeback);
    return r;
}

void
WorkerGroup::writePidRoster() const
{
    if (options_.pidFile.empty())
        return;
    std::string text;
    for (size_t rank = 0; rank < procs_.size(); ++rank) {
        if (!procs_[rank].alive)
            continue;
        text += std::to_string(procs_[rank].pid) + " " +
                std::to_string(rank) + "\n";
    }
    if (!writeFileAtomic(options_.pidFile, text))
        CASCADE_LOG("warning: failed to write worker PID roster %s",
                    options_.pidFile.c_str());
}

void
WorkerGroup::start()
{
    CASCADE_CHECK(!started_, "WorkerGroup: start() called twice");
    started_ = true;
    if (metrics_) {
        metrics_->gauge("worker.group_size")
            .set(static_cast<double>(options_.workers));
        metrics_->gauge("worker.shards")
            .set(static_cast<double>(shards_));
    }

    // fork() at this quiescent point hands every child a
    // copy-on-write image of the master replica — no state transfer;
    // the child simply keeps using master_ as its replica.
    procs_.resize(options_.workers);
    for (size_t rank = 0; rank < options_.workers; ++rank) {
        int fds[2] = {-1, -1};
        CASCADE_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
                      "WorkerGroup: socketpair failed");
        const pid_t pid = ::fork();
        CASCADE_CHECK(pid >= 0, "WorkerGroup: fork failed");
        if (pid == 0) {
            // Child: drop the supervisor ends (ours and every
            // sibling's) so a dead supervisor surfaces as EOF.
            while (::close(fds[0]) == -1 && errno == EINTR) {
            }
            for (size_t j = 0; j < rank; ++j) {
                while (::close(procs_[j].fd) == -1 && errno == EINTR) {
                }
            }
            workerMain(rank, fds[1]);
        }
        while (::close(fds[1]) == -1 && errno == EINTR) {
        }
        procs_[rank].fd = fds[0];
        procs_[rank].pid = pid;
        procs_[rank].alive = true;
    }
    writePidRoster();
}

void
WorkerGroup::workerMain(size_t rank, int fd)
{
    // The parent's pool threads do not exist in this process; a
    // fresh single-thread request keeps the worker's compute serial
    // (shard determinism does not depend on it — PR 4's GEMM is
    // thread-count invariant — but serial workers keep N processes
    // from oversubscribing the machine).
    ThreadPool::reinitAfterFork(1);
    for (;;) {
        std::string payload;
        const FrameStatus st = readFrameFd(fd, payload, -1);
        if (st != FrameStatus::Ok)
            ::_exit(st == FrameStatus::Eof ? 0 : 2);
        ByteReader r(payload);
        uint32_t cmd = 0;
        if (!r.u32(cmd))
            ::_exit(2);

        ByteWriter reply;
        switch (cmd) {
        case kCmdCompute: {
            uint64_t gb = 0, lo = 0, hi = 0, count = 0;
            if (!r.u64(gb) || !r.u64(lo) || !r.u64(hi) ||
                !r.u64(count)) {
                ::_exit(2);
            }
            if (fault::workerKillNow(gb, rank)) {
                CASCADE_LOG("fault injection: worker %zu SIGKILLs "
                            "itself at batch %llu",
                            rank, (unsigned long long)gb);
                ::raise(SIGKILL);
            }
            const double stall = fault::workerStallMs(gb, rank);
            if (stall > 0.0) {
                CASCADE_LOG("fault injection: worker %zu stalls "
                            "%.0f ms at batch %llu",
                            rank, stall, (unsigned long long)gb);
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(stall));
            }
            std::vector<ShardResult> results;
            results.reserve(static_cast<size_t>(count));
            for (uint64_t i = 0; i < count; ++i) {
                uint32_t shard = 0;
                if (!r.u32(shard))
                    ::_exit(2);
                const auto slice = shardSlice(
                    static_cast<size_t>(lo), static_cast<size_t>(hi),
                    shards_, shard);
                if (slice.first == slice.second)
                    continue;
                results.push_back(computeShard(
                    gb, static_cast<size_t>(lo), static_cast<size_t>(hi),
                    shard));
            }
            reply.u32(kRspShards);
            reply.u32(static_cast<uint32_t>(results.size()));
            for (const ShardResult &sr : results)
                writeShardResult(reply, sr);
            break;
        }
        case kCmdApply: {
            MergedUpdate update;
            if (!readMergedUpdate(r, update))
                ::_exit(2);
            applyMergedUpdate(master_, data_, update);
            reply.u32(kRspAck);
            break;
        }
        case kCmdReset:
            master_.resetState();
            reply.u32(kRspAck);
            break;
        case kCmdSync: {
            ByteReader state(nullptr, 0);
            if (!r.sub(state) || !master_.loadTrainingState(state))
                ::_exit(2);
            reply.u32(kRspAck);
            break;
        }
        case kCmdShutdown:
            reply.u32(kRspAck);
            (void)writeFrameFd(fd, reply.buffer());
            ::_exit(0);
        default:
            ::_exit(2);
        }
        if (!writeFrameFd(fd, reply.buffer()))
            ::_exit(0); // supervisor gone; nothing left to serve
    }
}

void
WorkerGroup::declareDead(size_t rank, const char *why)
{
    Proc &p = procs_[rank];
    if (!p.alive)
        return;
    p.alive = false;
    CASCADE_LOG("worker %zu (pid %ld) declared dead: %s; folding its "
                "shards into %zu survivor(s)",
                rank, p.pid, why, aliveWorkers());
    // Hung case: the worker may still be running — make the death
    // real before reaping, so a stuck worker cannot wedge waitpid.
    (void)::kill(static_cast<pid_t>(p.pid), SIGKILL);
    int status = 0;
    while (::waitpid(static_cast<pid_t>(p.pid), &status, 0) == -1 &&
           errno == EINTR) {
    }
    while (::close(p.fd) == -1 && errno == EINTR) {
    }
    p.fd = -1;
    p.pid = -1;
    if (metrics_)
        metrics_->counter("worker.deaths").add(1);
    writePidRoster();
    if (onDegrade_)
        onDegrade_(aliveWorkers() > 0 ? "worker-fold" : "worker-local");
}

bool
WorkerGroup::sendCommand(size_t rank, const std::string &payload)
{
    if (!procs_[rank].alive)
        return false;
    return writeFrameFd(procs_[rank].fd, payload);
}

StepResult
WorkerGroup::runBatch(uint64_t globalBatch, size_t st, size_t ed)
{
    CASCADE_CHECK(started_ && !shutdown_,
                  "WorkerGroup: runBatch outside start()/shutdown()");
    const auto assign = shardAssignment();

    // Dispatch compute to every alive worker with work; a failed send
    // is a death (SIGPIPE-free by contract of writeFrameFd).
    for (size_t rank = 0; rank < options_.workers; ++rank) {
        if (!procs_[rank].alive || assign[rank].empty())
            continue;
        ByteWriter w;
        w.u32(kCmdCompute);
        w.u64(globalBatch);
        w.u64(st);
        w.u64(ed);
        w.u64(assign[rank].size());
        for (uint32_t s : assign[rank])
            w.u32(s);
        if (!sendCommand(rank, w.buffer()))
            declareDead(rank, "compute dispatch failed");
    }

    // Collect. The per-reply poll deadline IS the worker's heartbeat:
    // Eof = the worker died (SIGKILL closes its socket end), Timeout
    // = it hangs (the watchdog SIGKILLs it in declareDead). Either
    // way its shards land on the missing list.
    std::vector<ShardResult> results;
    std::vector<uint32_t> missing;
    for (size_t rank = 0; rank < options_.workers; ++rank) {
        if (assign[rank].empty())
            continue;
        if (!procs_[rank].alive) {
            missing.insert(missing.end(), assign[rank].begin(),
                           assign[rank].end());
            continue;
        }
        std::string payload;
        const FrameStatus fs =
            readFrameFd(procs_[rank].fd, payload,
                        static_cast<int>(options_.heartbeatMs));
        if (fs != FrameStatus::Ok) {
            if (fs == FrameStatus::Timeout && metrics_)
                metrics_->counter("worker.heartbeat_timeouts").add(1);
            declareDead(rank, fs == FrameStatus::Timeout
                                  ? "heartbeat deadline missed"
                                  : "connection lost mid-compute");
            missing.insert(missing.end(), assign[rank].begin(),
                           assign[rank].end());
            continue;
        }
        ByteReader r(payload);
        uint32_t cmd = 0, count = 0;
        bool ok = r.u32(cmd) && cmd == kRspShards && r.u32(count);
        for (uint32_t i = 0; ok && i < count; ++i) {
            ShardResult sr;
            ok = readShardResult(r, sr);
            if (ok)
                results.push_back(std::move(sr));
        }
        if (!ok) {
            declareDead(rank, "malformed shard reply");
            missing.insert(missing.end(), assign[rank].begin(),
                           assign[rank].end());
        }
    }

    // Recovery: the master's replica is still pristine (it mutates
    // only in applyMergedUpdate below), so it recomputes the missing
    // shards bit-identically — no checkpoint reload, no lost batch.
    size_t localShards = 0;
    auto computeLocal = [&](uint32_t s) {
        const auto slice = shardSlice(st, ed, shards_, s);
        if (slice.first == slice.second)
            return;
        results.push_back(computeShard(globalBatch, st, ed, s));
        ++localShards;
    };
    for (uint32_t s : missing)
        computeLocal(s);
    if (aliveWorkers() == 0 && missing.empty()) {
        // Everyone was already dead before this batch: worker-local
        // mode, the master computes the whole shard set itself.
        for (uint32_t s = 0; s < static_cast<uint32_t>(shards_); ++s)
            computeLocal(s);
    }
    if (localShards > 0 && metrics_)
        metrics_->counter("worker.local_shards").add(localShards);

    // `worker.merge_seconds` covers merge, broadcast and apply only.
    Timer merge;
    MergedUpdate update = mergeShardResults(std::move(results));

    // Broadcast the merged update; every surviving replica applies
    // the identical bytes the master applies below.
    ByteWriter aw;
    aw.u32(kCmdApply);
    writeMergedUpdate(aw, update);
    std::vector<char> applied(options_.workers, 0);
    for (size_t rank = 0; rank < options_.workers; ++rank) {
        if (!procs_[rank].alive)
            continue;
        if (sendCommand(rank, aw.buffer()))
            applied[rank] = 1;
        else
            declareDead(rank, "apply dispatch failed");
    }
    for (size_t rank = 0; rank < options_.workers; ++rank) {
        if (!applied[rank] || !procs_[rank].alive)
            continue;
        std::string payload;
        const FrameStatus fs = readFrameFd(
            procs_[rank].fd, payload, ackDeadline(options_));
        ByteReader r(payload);
        uint32_t cmd = 0;
        if (fs != FrameStatus::Ok || !r.u32(cmd) || cmd != kRspAck)
            declareDead(rank, "apply not acknowledged");
    }
    StepResult r = applyMergedUpdate(master_, data_, update);
    if (metrics_) {
        metrics_->histogram("worker.merge_seconds")
            .record(merge.seconds());
    }
    return r;
}

void
WorkerGroup::resyncReplicas()
{
    if (!started_ || shutdown_)
        return;
    if (metrics_)
        metrics_->counter("worker.resyncs").add(1);
    // The state goes length-prefixed like ByteWriter::str, but encoded
    // in place: reserve the length, write the state, patch the length.
    ByteWriter w;
    w.u32(kCmdSync);
    const size_t at = w.size();
    w.u64(0);
    master_.saveTrainingState(w);
    w.patchU64(at, w.size() - at - sizeof(uint64_t));
    for (size_t rank = 0; rank < options_.workers; ++rank) {
        if (!procs_[rank].alive)
            continue;
        if (!sendCommand(rank, w.buffer())) {
            declareDead(rank, "sync dispatch failed");
            continue;
        }
        std::string payload;
        uint32_t cmd = 0;
        const FrameStatus fs = readFrameFd(
            procs_[rank].fd, payload, ackDeadline(options_));
        ByteReader r(payload);
        if (fs != FrameStatus::Ok || !r.u32(cmd) || cmd != kRspAck)
            declareDead(rank, "sync not acknowledged");
    }
}

void
WorkerGroup::resetReplicas()
{
    if (!started_ || shutdown_)
        return;
    ByteWriter w;
    w.u32(kCmdReset);
    for (size_t rank = 0; rank < options_.workers; ++rank) {
        if (!procs_[rank].alive)
            continue;
        if (!sendCommand(rank, w.buffer())) {
            declareDead(rank, "reset dispatch failed");
            continue;
        }
        std::string payload;
        uint32_t cmd = 0;
        const FrameStatus fs = readFrameFd(
            procs_[rank].fd, payload, ackDeadline(options_));
        ByteReader r(payload);
        if (fs != FrameStatus::Ok || !r.u32(cmd) || cmd != kRspAck)
            declareDead(rank, "reset not acknowledged");
    }
}

void
WorkerGroup::shutdown()
{
    if (shutdown_ || !started_) {
        shutdown_ = true;
        return;
    }
    shutdown_ = true;
    ByteWriter w;
    w.u32(kCmdShutdown);
    for (size_t rank = 0; rank < options_.workers; ++rank) {
        Proc &p = procs_[rank];
        if (!p.alive)
            continue;
        bool clean = false;
        if (writeFrameFd(p.fd, w.buffer())) {
            std::string payload;
            // Short grace period: a worker that cannot ack a
            // zero-work command promptly is wedged.
            clean = readFrameFd(p.fd, payload, 2000) ==
                    FrameStatus::Ok;
        }
        if (!clean)
            (void)::kill(static_cast<pid_t>(p.pid), SIGKILL);
        int status = 0;
        while (::waitpid(static_cast<pid_t>(p.pid), &status, 0) ==
                   -1 &&
               errno == EINTR) {
        }
        while (::close(p.fd) == -1 && errno == EINTR) {
        }
        p.alive = false;
        p.fd = -1;
        p.pid = -1;
    }
    if (!options_.pidFile.empty())
        (void)removeFileIfExists(options_.pidFile);
}

} // namespace cascade
