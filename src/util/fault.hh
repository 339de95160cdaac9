/**
 * @file
 * Deterministic fault injection for resilience testing.
 *
 * A process-wide injector with countable trigger points that the
 * training session, the worker runtime and the binary-I/O layer
 * consult.
 * Faults are configured either programmatically (tests) or from the
 * environment (CLI runs):
 *
 *   CASCADE_FAULT_WRITE_FAIL_NTH=N    fail the Nth atomic file write
 *                                     (1-based)
 *   CASCADE_FAULT_WRITE_FAIL_COUNT=M  fail M consecutive writes
 *                                     starting at the Nth (default 1,
 *                                     the old one-shot behaviour);
 *                                     drives the checkpoint
 *                                     RetryPolicy and the degraded
 *                                     "checkpointing disabled" mode
 *   CASCADE_FAULT_TORN_WRITE_NTH=N    the Nth atomic file write
 *                                     commits a truncated artifact
 *                                     (half the framed bytes) and
 *                                     REPORTS SUCCESS — the kernel-
 *                                     crashed-after-rename torn write
 *                                     no in-process check can see;
 *                                     only the CRC scan on the next
 *                                     load catches it (one-shot)
 *   CASCADE_FAULT_SHORT_WRITE_BYTES=B the next atomic file write only
 *                                     gets B bytes to the file and
 *                                     reports a short write, which the
 *                                     checked-return discipline in
 *                                     util/binio must surface as a
 *                                     clean failure (one-shot)
 *   CASCADE_FAULT_ENOSPC_NTH=N        the Nth atomic file write fails
 *                                     mid-stream as if the disk
 *                                     filled (ENOSPC): half the bytes
 *                                     land in the temp file, the
 *                                     write fails, no rename happens
 *                                     (one-shot)
 *   CASCADE_FAULT_NAN_BATCH=K         replace global batch K's
 *                                     training loss with NaN
 *                                     (one-shot)
 *   CASCADE_FAULT_CRASH_BATCH=K       simulate a crash right after
 *                                     global batch K completes
 *                                     (one-shot; the trainer returns
 *                                     an interrupted report)
 *   CASCADE_FAULT_STAGE_LATENCY=checkpoint=ms
 *                                     sleep `ms` milliseconds inside
 *                                     every checkpoint write window
 *                                     (after the write marker, before
 *                                     the save); widens the window the
 *                                     chaos harness kills into.
 *                                     `checkpoint` is the only stage
 *                                     accepted
 *   CASCADE_FAULT_WORKER_KILL_NTH=B[@R][,...]
 *                                     worker rank R (default 0) of a
 *                                     multi-process sharded run
 *                                     raises SIGKILL on itself when
 *                                     asked to compute global batch B
 *                                     — the impolite worker death the
 *                                     supervisor's fold-into-
 *                                     survivors recovery must absorb
 *                                     (one-shot per entry; consulted
 *                                     by the worker processes,
 *                                     train/shard.cc)
 *   CASCADE_FAULT_WORKER_HANG_MS=B@R=ms
 *                                     worker rank R stalls `ms`
 *                                     milliseconds before replying to
 *                                     global batch B's compute
 *                                     command; with a short
 *                                     --worker-heartbeat-ms this
 *                                     deterministically trips the
 *                                     worker group's heartbeat
 *                                     deadline (one-shot)
 *
 * Values are parsed strictly: a malformed value ("3x", "", "1e")
 * aborts with a clear error instead of being silently coerced, and
 * unrecognized CASCADE_FAULT_* variables produce a warning so typos
 * ("CASCADE_FAULT_NAN_BACH") cannot disarm a fault plan unnoticed.
 *
 * The batch/write triggers are one-shot (or bounded-count) by design:
 * after a numeric-guard rollback the same batch index is replayed, and
 * an unbounded re-firing fault would turn every recovery test into an
 * infinite loop.
 */

#ifndef CASCADE_UTIL_FAULT_HH
#define CASCADE_UTIL_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cascade {
namespace fault {

/** Injection plan; negative batch indices / zero counts disarm. */
struct Config
{
    /** Fail the Nth writeFileAtomic call (1-based); 0 = never. */
    long failWriteNth = 0;
    /** Consecutive write failures starting at the Nth. */
    long failWriteCount = 1;
    /** Nth write commits a torn (truncated) file yet reports success;
     *  0 = never. One-shot. */
    long tornWriteNth = 0;
    /** Next write delivers at most this many bytes and reports a
     *  short write; -1 = off. One-shot. */
    long shortWriteBytes = -1;
    /** Nth write fails mid-stream with ENOSPC semantics; 0 = never.
     *  One-shot. */
    long enospcNth = 0;
    /** Global batch whose loss becomes NaN; -1 = never. */
    long nanBatch = -1;
    /** Global batch after which training "crashes"; -1 = never. */
    long crashBatch = -1;
    /** Sleep per checkpoint write window, ms; 0 = none. */
    double checkpointLatencyMs = 0.0;
    /** (globalBatch, workerRank) pairs at which the matching forked
     *  worker SIGKILLs itself; each entry is one-shot. */
    std::vector<std::pair<long, long>> workerKills;
    /** Global batch at which workerHangRank stalls hangMs before
     *  replying; -1 = never. One-shot. */
    long workerHangBatch = -1;
    /** Worker rank that performs the armed hang. */
    long workerHangRank = 0;
    /** Stall duration for the armed worker hang. */
    double hangMs = 0.0;
};

/** Install a plan and rearm all triggers (tests). */
void configure(const Config &config);

/** Disarm everything and zero the counters. */
void reset();

/**
 * Parse the CASCADE_FAULT_* environment into `out`. Strict: a
 * malformed value fails the parse with a descriptive `error`; any
 * CASCADE_FAULT_-prefixed variable that is not a known trigger is
 * reported in `unknown` (the caller warns). Exposed separately from
 * the process-wide initializer so tests can drive it directly.
 * @return false when any value failed to parse (error is set)
 */
bool parseEnvConfig(Config &out, std::vector<std::string> &unknown,
                    std::string &error);

/**
 * What the I/O fault layer wants done to one atomic file write.
 * util/binio consults this once per writeFileAtomic call.
 */
struct WriteFaultAction
{
    enum class Kind
    {
        None,      ///< write normally
        FailEarly, ///< refuse before touching the filesystem
        Torn,      ///< commit a truncated file, report success
        Short,     ///< deliver only `bytes` bytes, report failure
        Enospc     ///< fail mid-stream as if the disk filled
    };
    Kind kind = Kind::None;
    /** Short: payload bytes that reach the file before the cut. */
    long bytes = 0;
};

/**
 * Decide the fate of this atomic file write. Counts every call while
 * any write-fault trigger is armed; FailEarly fires for writes
 * [failWriteNth, failWriteNth + failWriteCount), Torn/Enospc for
 * their configured Nth write, Short for the first write after arming.
 * When several triggers would fire on the same write the precedence
 * is FailEarly > Enospc > Torn > Short.
 */
WriteFaultAction onAtomicFileWrite(const std::string &path);

/**
 * Inject NaN into `loss` when `globalBatch` matches the plan.
 * @return true if the injection fired
 */
bool maybeInjectNan(uint64_t globalBatch, double &loss);

/** True when training should simulate a crash after `globalBatch`. */
bool crashAfter(uint64_t globalBatch);

/**
 * Injected latency for one checkpoint write window, in milliseconds;
 * 0 when none is armed. The caller (TrainingSession::writeCheckpoint)
 * performs the sleep, so the widened window is real wall time.
 */
double checkpointLatencyMs();

/**
 * True when the forked worker with rank `rank` should SIGKILL itself
 * before computing `globalBatch` (WORKER_KILL_NTH). Each armed
 * (batch, rank) entry fires at most once; the worker process
 * (train/shard.cc) consults this, after fork() has handed it a copy
 * of the armed plan.
 */
bool workerKillNow(uint64_t globalBatch, size_t rank);

/**
 * Milliseconds the worker with rank `rank` should stall before
 * replying to `globalBatch`'s compute command (WORKER_HANG_MS);
 * 0 when not armed for this (batch, rank). One-shot. The caller
 * performs the sleep so the stall is real wall time and the
 * supervisor's heartbeat deadline trips deterministically.
 */
double workerStallMs(uint64_t globalBatch, size_t rank);

/** Total faults injected since the last configure/reset. */
size_t injectedCount();

} // namespace fault
} // namespace cascade

#endif // CASCADE_UTIL_FAULT_HH
