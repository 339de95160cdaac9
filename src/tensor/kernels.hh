/**
 * @file
 * Hot-path compute kernels: the single entry point for every dense
 * operation the autograd layer and the nn modules execute per batch.
 *
 * Design (DESIGN.md "Compute kernels"):
 *
 *  - One GEMM API. `gemm(ta, tb, A, B, out)` covers the four transpose
 *    combinations that used to be three ad-hoc entry points; `gemmAcc`
 *    accumulates into `out` so backward passes scatter straight into
 *    gradient tensors without a temporary.
 *
 *  - Cache-blocked, register-tiled compute. The kernel walks MR x NR
 *    output tiles with the full-k dot product held in registers, so
 *    each output element is accumulated in the fixed order
 *    p = 0..k-1 regardless of tiling, banding, thread count or
 *    operand orientation.
 *
 *  - No materialized transposes. op(A) is read where it is stored,
 *    with the orientation fixed at compile time. op(B) is walked in
 *    k x NR panels: a row-major B feeds a full panel in place; a
 *    transposed B, or an edge panel of NR/2..NR-1 columns, is packed
 *    into a per-thread panel, zero-padded to NR, and runs the full
 *    register tile with only its real columns stored. Narrower panels
 *    and the last m % MR rows take a row-at-a-time edge path with the
 *    same per-element order.
 *
 *  - Deterministic parallelism. Large GEMMs are split into row-tile
 *    bands over the global ThreadPool. Because a band boundary never
 *    changes the per-element accumulation order, results are
 *    bit-identical for *any* thread count — stronger than the
 *    fixed-thread-count contract PR 1's golden-trajectory test needs.
 *
 *  - Plain storage. Every output is an ordinary Tensor with one
 *    owner; an autograd node's value and gradient are freed with the
 *    node. DESIGN.md §9 records why there is no buffer pool.
 *
 *  - Observability. Kernel invocations and GEMM flops are counted in
 *    process-wide atomics read through stats(); a TrainingSession
 *    publishes the change over its run as `kernels.*` counters in its
 *    MetricsRegistry.
 */

#ifndef CASCADE_TENSOR_KERNELS_HH
#define CASCADE_TENSOR_KERNELS_HH

#include <cstdint>

#include "tensor/tensor.hh"
#include "util/determinism.hh"

namespace cascade {

namespace kernels {

/** Operand orientation for gemm(). */
enum class Trans : uint8_t {
    None,     ///< use the operand as stored
    Transpose ///< use the operand's transpose
};

/** @name GEMM
 * C = op(A) * op(B) with op in {identity, transpose}. Inner dimensions
 * must agree after applying op; `out` is shaped (or reshaped) to the
 * result. gemmAcc() instead requires `out` to be pre-shaped and adds
 * the product into it (backward-pass accumulation).
 */
/** @{ */
CASCADE_TRAJECTORY
void gemm(Trans ta, Trans tb, const Tensor &a, const Tensor &b,
          Tensor &out);
CASCADE_TRAJECTORY
void gemmAcc(Trans ta, Trans tb, const Tensor &a, const Tensor &b,
             Tensor &out);
/** Convenience overload returning a new m x n tensor. */
CASCADE_TRAJECTORY
Tensor gemm(Trans ta, Trans tb, const Tensor &a, const Tensor &b);
/** @} */

/**
 * Reference GEMM — the seed repo's naive single-threaded triple loops,
 * retained verbatim (kernels_ref.cc, default optimization flags) as
 * the oracle for kernel tests and the baseline for bench_hotpath.
 */
Tensor naiveGemm(Trans ta, Trans tb, const Tensor &a, const Tensor &b);

/** @name Elementwise / reduction kernels (out-parameter variants)
 * `out` is fully overwritten; shapes are checked. axpy() accumulates
 * in place (y += alpha * x).
 */
/** @{ */
void add(const Tensor &a, const Tensor &b, Tensor &out);
void sub(const Tensor &a, const Tensor &b, Tensor &out);
void hadamard(const Tensor &a, const Tensor &b, Tensor &out);
void scale(const Tensor &a, float s, Tensor &out);
void axpy(float alpha, const Tensor &x, Tensor &y);
/** Per-row sum: (RxC) -> (Rx1). */
void rowSum(const Tensor &a, Tensor &out);
/** Per-column sum: (RxC) -> (1xC). */
void colSum(const Tensor &a, Tensor &out);
/** @} */

/**
 * Fused SG-Filter signal: cosine similarity between the current
 * contents of dst and src (same conventions as cosineSimilarityRows —
 * 1.0 when both near-zero, 0.0 when exactly one is), overwriting dst
 * with src in the same pass. Returns the pre/post-update cosine.
 */
double cosineOverwrite(float *dst, const float *src, size_t n);

/** Point-in-time copy of the kernel counters. */
struct KernelStats
{
    uint64_t gemmCalls = 0;        ///< gemm + gemmAcc invocations
    uint64_t gemmFlops = 0;        ///< 2*m*k*n summed over calls
    uint64_t elementwiseCalls = 0; ///< out-param elementwise/reduction calls
    /** Always 0: there is no buffer pool. Kept only because perfbench
     *  still reads them for its `tensor.pool_*` metrics; they go with
     *  the next change to the benchmark. */
    uint64_t poolHits = 0;
    uint64_t poolMisses = 0;
    uint64_t poolCachedBytes = 0;
};

KernelStats stats();

} // namespace kernels

} // namespace cascade

#endif // CASCADE_TENSOR_KERNELS_HH
