/**
 * @file
 * Thread-pool based data parallelism.
 *
 * The paper parallelizes dependency-table building and last-tolerable-
 * event lookup with OpenMP; we provide an equivalent parallelFor built
 * on std::thread so the library has no compiler-extension dependency.
 * The table build runs on this pool; the lookup does not, since it is
 * incremental and touches only the few nodes it re-keys per batch
 * (core/tg_diffuser.hh).
 */

#ifndef CASCADE_UTIL_PARALLEL_HH
#define CASCADE_UTIL_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.hh"

namespace cascade {

/**
 * A fixed-size worker pool executing submitted closures.
 *
 * Workers are lazily started on first use. The global pool size defaults
 * to the hardware concurrency and can be overridden with
 * setGlobalThreads() (mirrors the paper's "CPU thread numbers in
 * TG-Diffuser and ABS" knob, §5.1).
 */
class ThreadPool
{
  public:
    /** Create a pool with the given number of worker threads. */
    explicit ThreadPool(size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task for asynchronous execution. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished.
     *
     * Exception safety: a task that throws does not take the process
     * down with std::terminate. The pool captures the first exception
     * (first-wins; later ones are dropped), lets the remaining tasks
     * run to completion, and rethrows the captured exception here, on
     * the caller. The pool stays usable afterwards.
     *
     * Sharing caveat: the pending count and the exception slot are
     * pool-global. When several threads interleave submit()/wait() on
     * one pool, wait() returns only once *everyone's* tasks have
     * drained, and whichever waiter runs first consumes the first
     * captured exception — it is not attributed to the thread whose
     * task threw. Callers that need per-caller completion and error
     * isolation on the shared global pool go through parallelFor /
     * parallelForChunks, which keep a per-call error slot and rethrow
     * only their own body's failure.
     */
    void wait() CASCADE_EXCLUDES(mutex_);

    /** Number of worker threads. */
    size_t threads() const { return workers_.size(); }

    /**
     * Process-wide shared pool. The reference stays valid until the
     * *next* setGlobalThreads() call; code that may race with a resize
     * must pin the pool with globalShared() instead.
     */
    static ThreadPool &global();

    /**
     * Shared handle to the process-wide pool. Holding the returned
     * pointer keeps that pool's workers alive across a concurrent
     * setGlobalThreads(), so in-flight parallelFor calls finish on the
     * pool they started with.
     */
    static std::shared_ptr<ThreadPool> globalShared();

    /**
     * True when the calling thread is a pool worker. Nested data
     * parallelism (a kernel invoked from inside a pool task) must run
     * serially instead of re-submitting to the pool it is already
     * executing on — wait() from a worker would deadlock once every
     * worker blocks there.
     */
    static bool inWorker();

    /**
     * Resize the global pool. Safe to call at any time, including
     * after the lazily-started pool has run work: the old pool keeps
     * serving callers that already pinned it and is drained and
     * joined once the last of them finishes; subsequent global() /
     * globalShared() calls lazily start a pool with the new size.
     * `threads == 0` restores the hardware-concurrency default.
     */
    static void setGlobalThreads(size_t threads);

    /**
     * Worker count of the process-wide pool (starting it lazily, like
     * global()). The per-thread parallel-cutover heuristics (e.g. the
     * GEMM banding threshold) size themselves with this.
     */
    static size_t globalThreads();

    /**
     * Make the global pool usable in the child of a fork(). fork()
     * copies only the calling thread: the inherited pool object still
     * lists workers_ that do not exist in the child, so destroying or
     * wait()ing on it would hang forever. This intentionally LEAKS
     * the inherited pool (its threads are gone; joining is
     * impossible) and installs a fresh request for `threads` workers,
     * started lazily on first use. Call this first thing in a forked
     * worker, before any parallel code runs.
     */
    static void reinitAfterFork(size_t threads);

    /**
     * The thread count the global pool has — or WOULD get if started
     * now — without starting one: the live pool's size if it exists,
     * else the requested size (hardware concurrency when unset).
     * Sizing heuristics (the GEMM parallel cutover) and parallelFor's
     * single-thread inline path use this so that a process which will
     * only ever run serial work (notably a fork()ed worker, where
     * creating even one pool thread is forbidden under TSan's
     * multi-threaded-fork rule) never forces the pool into existence.
     */
    static size_t globalThreadsRequested();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    /** One lock for the whole pool state; never held around task(). */
    AnnotatedMutex mutex_;
    std::queue<std::function<void()>> tasks_ CASCADE_GUARDED_BY(mutex_);
    std::condition_variable_any taskCv_;
    std::condition_variable_any doneCv_;
    size_t inflight_ CASCADE_GUARDED_BY(mutex_) = 0;
    bool stopping_ CASCADE_GUARDED_BY(mutex_) = false;
    /** First task exception, if any (see wait()'s sharing caveat). */
    std::exception_ptr firstError_ CASCADE_GUARDED_BY(mutex_);
};

/**
 * Run body(i) for i in [begin, end) across the global pool, splitting
 * the range into contiguous grains. Falls back to a serial loop for
 * small ranges where thread overhead would dominate.
 *
 * A body that throws no longer terminates the process: the first
 * exception thrown on any worker (first-wins) is captured and
 * rethrown on the calling thread after every chunk has finished, so
 * it propagates like an exception from a serial loop. Chunks other
 * than the throwing one still run to completion.
 *
 * @param begin   first index
 * @param end     one past the last index
 * @param body    callable taking a size_t index
 * @param grain   minimum indices per task
 */
void parallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)> &body,
                 size_t grain = 256);

/**
 * Chunked variant: body(lo, hi) receives whole sub-ranges, letting the
 * caller keep per-thread scratch state.
 */
void parallelForChunks(size_t begin, size_t end,
                       const std::function<void(size_t, size_t)> &body,
                       size_t grain = 256);

} // namespace cascade

#endif // CASCADE_UTIL_PARALLEL_HH
