/**
 * @file
 * Determinism ("trajectory") annotations for the bit-identity
 * contract.
 *
 * Every mode this repo ships — any-thread-count GEMM (DESIGN.md §9),
 * any-worker-count collectives (§13), S=0 pipelining (§12), out-of-
 * core and serve byte-identity (§14) — rests on one invariant: code
 * that defines the training trajectory is deterministic. Golden tests
 * enforce that invariant *dynamically*; this header is the static
 * half (DESIGN.md §15). Functions that define the trajectory are
 * marked CASCADE_TRAJECTORY, and `tools/detcheck.py` (the `scan`
 * preset / CI lane) walks the call graph from those roots and flags,
 * per rule:
 *
 *  - nondet-call        wall-clock, libc RNG, thread-id, PID reads
 *  - unordered-iter     iteration over std::unordered_{map,set}
 *  - addr-order         ordered containers keyed on raw pointers
 *                       (iteration order = allocation order)
 *  - unordered-reduce   std::reduce / transform_reduce / OpenMP
 *                       reductions (unspecified float fold order)
 *
 * A finding is silenced only by CASCADE_NONDET_OK("reason") carrying
 * a written order-insensitivity argument — "why this cannot change
 * the trajectory", not "checker, be quiet". An empty reason is a
 * checker error. The waiver policy mirrors tools/tsan.supp: every
 * silence is justified in-line where the next reader will see it.
 *
 * On Clang the macros also emit [[clang::annotate]] attributes so a
 * libclang-based walk (detcheck --engine clang, when the bindings are
 * installed) sees them in the AST; on GCC they compile away entirely
 * — zero codegen or layout difference, detcheck's portable engine
 * reads them lexically.
 *
 * What counts as trajectory-defining (the root set):
 *  - TgnnModel::stepForwardWithRng / advanceState — the forward pass
 *  - mergeShardResults / applyMergedUpdate — the sharded collective
 *  - kernels::gemm / gemmAcc — the fixed-p-order parallel reductions
 *  - saveCheckpointRotated / saveModel — checkpoint serialization
 *  - ServeEngine::applyEvents — the serve snapshot writer
 *  - TgnnModel::queryEmbeddings — the one query readout behind
 *    embedNodes / scoreLinks (serve answers are byte-compared)
 *
 * Observability (src/obs/, util/timer.hh, util/logging.hh) is
 * explicitly OUTSIDE the contract: metrics, traces and logs may read
 * clocks and thread-ids because nothing they produce feeds losses,
 * gradients, or serialized state. detcheck does not traverse into
 * those files.
 */

#ifndef CASCADE_UTIL_DETERMINISM_HH
#define CASCADE_UTIL_DETERMINISM_HH

/* Attribute dispatch: Clang understands [[clang::annotate]] on both
 * declarations and statements; everything else compiles the markers
 * away. detcheck's portable engine matches the macro names
 * lexically, so the attributes are an AST convenience, not a
 * requirement. */
#if defined(__clang__) && defined(__has_cpp_attribute)
#if __has_cpp_attribute(clang::annotate)
#define CASCADE_DETERMINISM_ANNOTATION(x) [[clang::annotate(x)]]
#endif
#endif
#ifndef CASCADE_DETERMINISM_ANNOTATION
#define CASCADE_DETERMINISM_ANNOTATION(x)
#endif

/**
 * Root marker: this function defines the training / serving
 * trajectory. Place it on the declaration (or the definition, for
 * free functions) — detcheck resolves roots by qualified name, so
 * marking either site covers both. Everything reachable from a root
 * is held to the determinism rules above.
 */
#define CASCADE_TRAJECTORY \
    CASCADE_DETERMINISM_ANNOTATION("cascade::trajectory")

/**
 * Waiver: the flagged construct on this line (or the line directly
 * below) is order-insensitive, with the argument written in
 * `reason`. Usable at statement position ahead of a loop:
 *
 *     CASCADE_NONDET_OK("max over size_t is commutative")
 *     for (NodeId n : touched_) ...
 *
 * or on the same line as a declaration. detcheck rejects an empty
 * reason and prints the reason with the waived finding in -v mode,
 * so a bogus justification is one `detcheck -v` away from review.
 */
#define CASCADE_NONDET_OK(reason) \
    CASCADE_DETERMINISM_ANNOTATION("cascade::nondet_ok:" reason)

#endif // CASCADE_UTIL_DETERMINISM_HH
