/**
 * @file
 * Clang thread-safety ("capability") annotations and annotated lock
 * primitives.
 *
 * The concurrency contracts (the ThreadPool's task queue,
 * per-instrument metrics locks, the fault-injection state) used to
 * live only in comments. This header turns them into
 * machine-checked invariants: data members are
 * declared CASCADE_GUARDED_BY(lock), functions declare what they
 * CASCADE_REQUIRES, and the `analyze` CMake preset compiles the tree
 * with `-Wthread-safety -Werror=thread-safety`, so touching a guarded
 * member on a path that does not hold its lock is a *build failure*
 * (DESIGN.md "Static analysis & concurrency contracts").
 *
 * On compilers without the capability attributes (GCC) every macro
 * expands to nothing and the annotated primitives degrade to plain
 * std::mutex semantics — zero behavioral or layout difference, the
 * annotations are types-only metadata for the Clang analysis.
 *
 * Conventions (enforced by tools/lint_cascade.py):
 *  - `src/` code never declares a raw `std::mutex` or uses
 *    `std::lock_guard`/`std::unique_lock` directly; it uses
 *    AnnotatedMutex + LockGuard/UniqueLock from this header so every
 *    lock is visible to the analysis. A deliberate exception carries
 *    an inline `cascade-lint: allow(raw-mutex)` justification.
 *  - every file that declares an AnnotatedMutex also carries at least
 *    one CASCADE_GUARDED_BY: a lock that guards nothing is either
 *    dead or undocumented.
 */

#ifndef CASCADE_UTIL_THREAD_ANNOTATIONS_HH
#define CASCADE_UTIL_THREAD_ANNOTATIONS_HH

#include <mutex> // cascade-lint: allow(raw-mutex) — the shim's backing store

/* Attribute dispatch: Clang >= 3.5 understands the capability
 * spellings; everything else (GCC, MSVC) compiles them away. */
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define CASCADE_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef CASCADE_THREAD_ANNOTATION
#define CASCADE_THREAD_ANNOTATION(x)
#endif

/** Marks a type as a lockable capability (mutexes). */
#define CASCADE_CAPABILITY(x) CASCADE_THREAD_ANNOTATION(capability(x))

/** Marks an RAII type whose lifetime equals a capability hold. */
#define CASCADE_SCOPED_CAPABILITY \
    CASCADE_THREAD_ANNOTATION(scoped_lockable)

/** Data member readable/writable only with `x` held. */
#define CASCADE_GUARDED_BY(x) CASCADE_THREAD_ANNOTATION(guarded_by(x))

/** Pointer member whose *pointee* is protected by `x`. */
#define CASCADE_PT_GUARDED_BY(x) \
    CASCADE_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function precondition: the listed capabilities are held. */
#define CASCADE_REQUIRES(...) \
    CASCADE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function acquires the listed capabilities (held on return). */
#define CASCADE_ACQUIRE(...) \
    CASCADE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the listed capabilities. */
#define CASCADE_RELEASE(...) \
    CASCADE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function acquires the capabilities iff it returns `ret`. */
#define CASCADE_TRY_ACQUIRE(ret, ...) \
    CASCADE_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

/** Function must be entered with the capabilities *not* held. */
#define CASCADE_EXCLUDES(...) \
    CASCADE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Lock-ordering declaration: this capability before `x`. */
#define CASCADE_ACQUIRED_BEFORE(...) \
    CASCADE_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

/** Lock-ordering declaration: this capability after `x`. */
#define CASCADE_ACQUIRED_AFTER(...) \
    CASCADE_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/** Function returns a reference to the named capability. */
#define CASCADE_RETURN_CAPABILITY(x) \
    CASCADE_THREAD_ANNOTATION(lock_returned(x))

/**
 * Escape hatch: disable the analysis for one function. Every use
 * carries a comment explaining why the locking pattern is beyond the
 * analysis (e.g. a reference handed out under one lock and mutated by
 * its owning thread only).
 */
#define CASCADE_NO_THREAD_SAFETY_ANALYSIS \
    CASCADE_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace cascade {

/**
 * std::mutex with its lock/unlock visible to -Wthread-safety.
 *
 * Same semantics, size-of-a-std::mutex layout; exists solely so the
 * analysis can name it as a capability. Satisfies BasicLockable /
 * Lockable, so it also works with std::condition_variable_any.
 */
class CASCADE_CAPABILITY("mutex") AnnotatedMutex
{
  public:
    AnnotatedMutex() = default;
    AnnotatedMutex(const AnnotatedMutex &) = delete;
    AnnotatedMutex &operator=(const AnnotatedMutex &) = delete;

    void lock() CASCADE_ACQUIRE() { m_.lock(); }
    void unlock() CASCADE_RELEASE() { m_.unlock(); }
    bool try_lock() CASCADE_TRY_ACQUIRE(true) { return m_.try_lock(); }

  private:
    std::mutex m_;
};

/**
 * Scoped lock over an AnnotatedMutex — the annotated replacement for
 * std::lock_guard. Never unlocks early; see UniqueLock for waits.
 */
class CASCADE_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(AnnotatedMutex &m) CASCADE_ACQUIRE(m) : m_(m)
    {
        m_.lock();
    }
    ~LockGuard() CASCADE_RELEASE() { m_.unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    AnnotatedMutex &m_;
};

/**
 * Scoped lock that a std::condition_variable_any can release and
 * reacquire (the annotated replacement for std::unique_lock in
 * wait loops). Write waits as explicit loops —
 *
 *     UniqueLock lock(mutex_);
 *     while (!predicate())     // guarded reads: lock is held here
 *         cv_.wait(lock);
 *
 * — rather than the cv.wait(lock, lambda) form: the lambda is
 * analyzed as a separate function that cannot see the held lock.
 */
class CASCADE_SCOPED_CAPABILITY UniqueLock
{
  public:
    explicit UniqueLock(AnnotatedMutex &m) CASCADE_ACQUIRE(m) : m_(m)
    {
        m_.lock();
        owned_ = true;
    }
    ~UniqueLock() CASCADE_RELEASE()
    {
        if (owned_)
            m_.unlock();
    }

    /** BasicLockable surface for condition_variable_any. */
    void lock() CASCADE_ACQUIRE()
    {
        m_.lock();
        owned_ = true;
    }
    void unlock() CASCADE_RELEASE()
    {
        owned_ = false;
        m_.unlock();
    }

    UniqueLock(const UniqueLock &) = delete;
    UniqueLock &operator=(const UniqueLock &) = delete;

  private:
    AnnotatedMutex &m_;
    bool owned_ = false;
};

} // namespace cascade

#endif // CASCADE_UTIL_THREAD_ANNOTATIONS_HH
