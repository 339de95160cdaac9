/**
 * @file
 * Blocked, thread-pool-parallel kernel implementations.
 *
 * This translation unit is compiled with elevated optimization flags
 * (see src/tensor/CMakeLists.txt): the micro-kernels are written as
 * plain fixed-trip-count loops so the compiler can vectorize them for
 * whatever SIMD width the build machine has. Everything observable —
 * accumulation order per output element, banding, tail handling — is
 * independent of those flags' *structure*; see the determinism
 * contract in kernels.hh.
 */

#include "tensor/kernels.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/thread_annotations.hh"

namespace cascade {
namespace kernels {

namespace {

/* ------------------------------------------------------------------ */
/* Counters                                                            */

std::atomic<uint64_t> gemmCalls{0};
std::atomic<uint64_t> gemmFlops{0};
std::atomic<uint64_t> elementwiseCalls{0};
std::atomic<uint64_t> poolHits{0};
std::atomic<uint64_t> poolMisses{0};
std::atomic<uint64_t> poolReturns{0};
std::atomic<uint64_t> poolEvictions{0};
std::atomic<uint64_t> poolCachedBytes{0};

inline void
bump(std::atomic<uint64_t> &counter, uint64_t n = 1)
{
    counter.fetch_add(n, std::memory_order_relaxed);
}

/* ------------------------------------------------------------------ */
/* Buffer pool                                                         */

/**
 * Bounded free list of float buffers. Best-fit acquire; buffers whose
 * capacity would blow the caps are dropped on release instead of
 * cached. All hot-path tensors in a training step cycle through here
 * once the autograd graph of the first batch has been torn down.
 */
class BufferPool
{
  public:
    /** A buffer of n floats; with `zeroed` every one of them is 0,
     *  written once (a miss is value-initialized already). */
    std::vector<float>
    acquire(size_t n, bool zeroed)
    {
        // Only the free-list scan runs under the shard mutex; the
        // O(n) resize (zero-fill of the grown region) happens after
        // release so a large acquire cannot stall every concurrent
        // recycle — lock-hold-time fix from the PR-5 TSan/annotation
        // pass. The pool is sharded by thread so concurrent query
        // threads (the serve read path spins hundreds of small
        // tensors per request) never contend on one free list.
        Shard &sh = shards_[shardIndex()];
        std::vector<float> buf;
        bool hit = false;
        {
            LockGuard lock(sh.m_);
            size_t best = sh.free_.size();
            for (size_t i = 0; i < sh.free_.size(); ++i) {
                if (sh.free_[i].capacity() < n)
                    continue;
                if (best == sh.free_.size() ||
                    sh.free_[i].capacity() <
                        sh.free_[best].capacity()) {
                    best = i;
                }
            }
            if (best != sh.free_.size()) {
                buf = std::move(sh.free_[best]);
                sh.free_[best] = std::move(sh.free_.back());
                sh.free_.pop_back();
                poolCachedBytes.fetch_sub(
                    buf.capacity() * sizeof(float),
                    std::memory_order_relaxed);
                hit = true;
            }
        }
        if (hit) {
            bump(poolHits);
            if (zeroed)
                buf.assign(n, 0.0f);
            else
                buf.resize(n);
            return buf;
        }
        bump(poolMisses);
        return std::vector<float>(n);
    }

    void
    release(std::vector<float> &&buf)
    {
        const size_t bytes = buf.capacity() * sizeof(float);
        if (bytes == 0)
            return;
        poolReturns.fetch_add(1, std::memory_order_relaxed);
        Shard &sh = shards_[shardIndex()];
        LockGuard lock(sh.m_);
        if (sh.free_.size() >= kMaxBuffersPerShard ||
            bytes > kMaxBufferBytes ||
            poolCachedBytes.load(std::memory_order_relaxed) + bytes >
                kMaxCachedBytes) {
            poolEvictions.fetch_add(1, std::memory_order_relaxed);
            return; // buf freed here
        }
        poolCachedBytes.fetch_add(bytes, std::memory_order_relaxed);
        sh.free_.push_back(std::move(buf));
    }

    /** Intentionally leaked: outlives every static that owns tensors. */
    static BufferPool &
    global()
    {
        static BufferPool *pool = new BufferPool();
        return *pool;
    }

  private:
    static constexpr size_t kShards = 8;
    static constexpr size_t kMaxBuffersPerShard = 64;
    static constexpr size_t kMaxBufferBytes = 64ull << 20;
    static constexpr size_t kMaxCachedBytes = 192ull << 20;

    struct Shard
    {
        AnnotatedMutex m_;
        /** The free list proper; poolCachedBytes mirrors the byte
         *  total across shards (mutations happen under the shard
         *  mutex, the atomic only exists so stats() and the caps can
         *  read it without every lock). */
        std::vector<std::vector<float>> free_ CASCADE_GUARDED_BY(m_);
    };

    /** Stable per-thread shard. A buffer released on a different
     *  thread than it was acquired on just migrates shards — only the
     *  hit rate is affected, never correctness. */
    static size_t
    shardIndex()
    {
        static std::atomic<size_t> next{0};
        thread_local size_t idx =
            next.fetch_add(1, std::memory_order_relaxed) % kShards;
        return idx;
    }

    Shard shards_[kShards];
};

/* ------------------------------------------------------------------ */
/* GEMM core                                                           */

/** Register tile: MR output rows x NR output columns (NR floats span
 *  several SIMD vectors at any width up to 512-bit). */
constexpr size_t MR = 4;
constexpr size_t NR = 64;

/**
 * Minimum flops *per worker* for banding to pay off. The cutover must
 * scale with the pool size: a 2^22-flop product (128x256x64) amortizes
 * fork/join fine on 1-2 workers but at 8 the per-band work drops under
 * the dispatch cost and throughput collapses (the BENCH_hotpath
 * regression: 39x over naive at 1 thread, 9x at 8). Requiring
 * flops >= threads * 2^22 keeps big products banded on every pool size
 * and runs small ones serial instead of slower-in-parallel.
 */
constexpr uint64_t kMinParallelFlopsPerThread = 1ull << 22;

/** Element (i, p) of op(A); A is stored m x k (None) or k x m. */
template <bool TransA>
inline float
opA(const float *A, size_t lda, size_t i, size_t p)
{
    return TransA ? A[p * lda + i] : A[i * lda + p];
}

/**
 * Register tile: c[i * ldc + j] (+)= sum_p op(A)(i0 + i, p) *
 * b[p * ldb + j] for i < MR, j < NR, accumulated in the order
 * p = 0..k-1. Every trip count is fixed, so the accumulators stay in
 * registers.
 */
template <bool TransA>
inline void
tileKernel(const float *A, size_t lda, size_t i0, const float *b,
           size_t ldb, float *c, size_t ldc, size_t k, bool accumulate)
{
    float acc[MR][NR];
    if (accumulate) {
        for (size_t i = 0; i < MR; ++i)
            for (size_t j = 0; j < NR; ++j)
                acc[i][j] = c[i * ldc + j];
    } else {
        for (size_t i = 0; i < MR; ++i)
            for (size_t j = 0; j < NR; ++j)
                acc[i][j] = 0.0f;
    }
    for (size_t p = 0; p < k; ++p) {
        const float *brow = b + p * ldb;
        for (size_t i = 0; i < MR; ++i) {
            const float av = opA<TransA>(A, lda, i0 + i, p);
            for (size_t j = 0; j < NR; ++j)
                acc[i][j] += av * brow[j];
        }
    }
    for (size_t i = 0; i < MR; ++i)
        for (size_t j = 0; j < NR; ++j)
            c[i * ldc + j] = acc[i][j];
}

/** Edge path: im rows by jn columns, one output row at a time, in the
 *  same per-element order p = 0..k-1 as the register tile. */
template <bool TransA>
void
edgeRows(const float *A, size_t lda, size_t i0, size_t im,
         const float *b, size_t ldb, float *c, size_t ldc, size_t k,
         size_t jn, bool accumulate)
{
    for (size_t i = 0; i < im; ++i) {
        float *crow = c + i * ldc;
        if (!accumulate)
            std::memset(crow, 0, jn * sizeof(float));
        for (size_t p = 0; p < k; ++p) {
            const float av = opA<TransA>(A, lda, i0 + i, p);
            const float *brow = b + p * ldb;
            for (size_t j = 0; j < jn; ++j)
                crow[j] += av * brow[j];
        }
    }
}

/**
 * Copy columns [j0, j0 + jn) of op(B) into the first jn columns of the
 * calling thread's k x NR panel, zero its columns [jn, width) and
 * return it. B is stored k x n (None) or n x k (Transpose). The panel
 * grows to the largest k seen and is reused by the thread's next pack.
 */
const float *
packPanel(const float *B, bool transB, size_t k, size_t n, size_t j0,
          size_t jn, size_t width)
{
    thread_local std::vector<float> storage;
    if (storage.size() < k * NR)
        storage.resize(k * NR);
    float *panel = storage.data();
    if (!transB) {
        for (size_t p = 0; p < k; ++p)
            std::memcpy(panel + p * NR, B + p * n + j0,
                        jn * sizeof(float));
    } else {
        // Blocked over p so each source row is read a cache line at a
        // time while the written panel rows stay in L1.
        constexpr size_t PB = 16;
        for (size_t p0 = 0; p0 < k; p0 += PB) {
            const size_t p1 = std::min(k, p0 + PB);
            for (size_t j = 0; j < jn; ++j) {
                const float *src = B + (j0 + j) * k;
                for (size_t p = p0; p < p1; ++p)
                    panel[p * NR + j] = src[p];
            }
        }
    }
    if (width > jn) {
        for (size_t p = 0; p < k; ++p)
            std::memset(panel + p * NR + jn, 0,
                        (width - jn) * sizeof(float));
    }
    return panel;
}

/**
 * C tile-range kernel: rows [MR*tile_lo, min(MR*tile_hi, m)) of
 * C (+)= op(A) * op(B), C m x n row-major, op(A) m x k read in place.
 *
 * op(B) is walked in k x NR panels, each outside the row tiles so a
 * panel is prepared once per band. A stored-row-major B feeds a full
 * panel in place; a transposed B, or an edge panel of NR/2..NR-1
 * columns, is packed into per-thread scratch, zero-padded to NR, so
 * the full register tile runs and only the real columns are stored.
 * Narrower panels and the last m % MR rows take the edge path. The
 * padding never reaches C, and both paths accumulate each output
 * element in the order p = 0..k-1, so the result does not depend on
 * the path, the band or the operand orientation.
 */
template <bool TransA>
void
gemmTiles(const float *A, const float *B, bool transB, float *C,
          size_t m, size_t k, size_t n, bool accumulate, size_t tile_lo,
          size_t tile_hi)
{
    const size_t lda = TransA ? m : k;
    for (size_t j0 = 0; j0 < n; j0 += NR) {
        const size_t jn = std::min(NR, n - j0);
        const bool wide = 2 * jn >= NR;
        // Panel element (p, j) is op(B)(p, j0 + j) = b[p * ldb + j].
        const bool packed = transB || (wide && jn != NR);
        const float *b = packed
            ? packPanel(B, transB, k, n, j0, jn, wide ? NR : jn)
            : B + j0;
        const size_t ldb = packed ? NR : n;
        for (size_t t = tile_lo; t < tile_hi; ++t) {
            const size_t i0 = t * MR;
            const size_t im = std::min(MR, m - i0);
            float *c = C + i0 * n + j0;
            if (im < MR || !wide) {
                edgeRows<TransA>(A, lda, i0, im, b, ldb, c, n, k, jn,
                                 accumulate);
            } else if (jn == NR) {
                tileKernel<TransA>(A, lda, i0, b, ldb, c, n, k,
                                   accumulate);
            } else {
                float tile[MR * NR] = {};
                if (accumulate) {
                    for (size_t i = 0; i < MR; ++i)
                        std::memcpy(tile + i * NR, c + i * n,
                                    jn * sizeof(float));
                }
                tileKernel<TransA>(A, lda, i0, b, NR, tile, NR, k,
                                   /*accumulate=*/true);
                for (size_t i = 0; i < MR; ++i)
                    std::memcpy(c + i * n, tile + i * NR,
                                jn * sizeof(float));
            }
        }
    }
}

/** Dense C (+)= op(A)*op(B) over the thread pool (deterministic row
 *  bands). */
template <bool TransA>
void
gemmDense(const float *A, const float *B, bool transB, float *C,
          size_t m, size_t k, size_t n, bool accumulate)
{
    if (m == 0 || n == 0)
        return;
    const size_t tiles = (m + MR - 1) / MR;
    const uint64_t flops = 2ull * m * k * n;
    // globalThreadsRequested, not globalThreads: the heuristic must
    // not force the pool into existence in processes that will only
    // ever take the serial branch (fork()ed single-thread workers).
    const uint64_t workers =
        std::max<uint64_t>(1, ThreadPool::globalThreadsRequested());
    if (flops >= workers * kMinParallelFlopsPerThread &&
        !ThreadPool::inWorker()) {
        parallelForChunks(
            0, tiles,
            [&](size_t lo, size_t hi) {
                gemmTiles<TransA>(A, B, transB, C, m, k, n, accumulate,
                                  lo, hi);
            },
            /*grain=*/1);
    } else {
        gemmTiles<TransA>(A, B, transB, C, m, k, n, accumulate, 0,
                          tiles);
    }
}

/** Rows/cols of op(t). */
inline size_t
opRows(Trans t, const Tensor &x)
{
    return t == Trans::None ? x.rows() : x.cols();
}
inline size_t
opCols(Trans t, const Tensor &x)
{
    return t == Trans::None ? x.cols() : x.rows();
}

/** Shared gemm/gemmAcc body; out must be pre-shaped m x n. Both
 *  operands are read where they are stored. */
void
gemmInto(Trans ta, Trans tb, const Tensor &a, const Tensor &b,
         Tensor &out, bool accumulate)
{
    const size_t m = opRows(ta, a), k = opCols(ta, a), n = opCols(tb, b);
    CASCADE_CHECK(opRows(tb, b) == k, "gemm inner dim mismatch");
    CASCADE_CHECK(out.rows() == m && out.cols() == n,
                  "gemm output shape mismatch");
    CASCADE_CHECK(&out != &a && &out != &b, "gemm output aliases input");
    bump(gemmCalls);
    bump(gemmFlops, 2ull * m * k * n);

    const bool transB = tb == Trans::Transpose;
    if (ta == Trans::Transpose)
        gemmDense<true>(a.data(), b.data(), transB, out.data(), m, k, n,
                        accumulate);
    else
        gemmDense<false>(a.data(), b.data(), transB, out.data(), m, k, n,
                         accumulate);
}

} // namespace

/* ------------------------------------------------------------------ */
/* Public API                                                          */

void
gemm(Trans ta, Trans tb, const Tensor &a, const Tensor &b, Tensor &out)
{
    const size_t m = opRows(ta, a), n = opCols(tb, b);
    if (out.rows() != m || out.cols() != n) {
        recycle(std::move(out));
        out = uninit(m, n);
    }
    gemmInto(ta, tb, a, b, out, /*accumulate=*/false);
}

void
gemmAcc(Trans ta, Trans tb, const Tensor &a, const Tensor &b,
        Tensor &out)
{
    gemmInto(ta, tb, a, b, out, /*accumulate=*/true);
}

Tensor
gemm(Trans ta, Trans tb, const Tensor &a, const Tensor &b)
{
    Tensor out = uninit(opRows(ta, a), opCols(tb, b));
    gemmInto(ta, tb, a, b, out, /*accumulate=*/false);
    return out;
}

/* ------------------------------------------------------------------ */
/* Pooled tensors                                                      */

Tensor
zeros(size_t rows, size_t cols)
{
    return Tensor(rows, cols,
                  BufferPool::global().acquire(rows * cols, true));
}

Tensor
uninit(size_t rows, size_t cols)
{
    return Tensor(rows, cols,
                  BufferPool::global().acquire(rows * cols, false));
}

Tensor
copyOf(const Tensor &src)
{
    std::vector<float> buf =
        BufferPool::global().acquire(src.size(), false);
    if (src.size() > 0)
        std::memcpy(buf.data(), src.data(), src.size() * sizeof(float));
    return Tensor(src.rows(), src.cols(), std::move(buf));
}

void
recycle(Tensor &&t)
{
    BufferPool::global().release(std::move(t).takeData());
}

/* ------------------------------------------------------------------ */
/* Elementwise / reduction kernels                                     */

namespace {

inline void
checkBinary(const Tensor &a, const Tensor &b, Tensor &out,
            const char *what)
{
    CASCADE_CHECK(a.sameShape(b), what);
    CASCADE_CHECK(out.sameShape(a), what);
}

} // namespace

void
add(const Tensor &a, const Tensor &b, Tensor &out)
{
    checkBinary(a, b, out, "kernels::add shape mismatch");
    bump(elementwiseCalls);
    const float *x = a.data(), *y = b.data();
    float *o = out.data();
    for (size_t i = 0; i < a.size(); ++i)
        o[i] = x[i] + y[i];
}

void
sub(const Tensor &a, const Tensor &b, Tensor &out)
{
    checkBinary(a, b, out, "kernels::sub shape mismatch");
    bump(elementwiseCalls);
    const float *x = a.data(), *y = b.data();
    float *o = out.data();
    for (size_t i = 0; i < a.size(); ++i)
        o[i] = x[i] - y[i];
}

void
hadamard(const Tensor &a, const Tensor &b, Tensor &out)
{
    checkBinary(a, b, out, "kernels::hadamard shape mismatch");
    bump(elementwiseCalls);
    const float *x = a.data(), *y = b.data();
    float *o = out.data();
    for (size_t i = 0; i < a.size(); ++i)
        o[i] = x[i] * y[i];
}

void
scale(const Tensor &a, float s, Tensor &out)
{
    CASCADE_CHECK(out.sameShape(a), "kernels::scale shape mismatch");
    bump(elementwiseCalls);
    const float *x = a.data();
    float *o = out.data();
    for (size_t i = 0; i < a.size(); ++i)
        o[i] = x[i] * s;
}

void
axpy(float alpha, const Tensor &x, Tensor &y)
{
    CASCADE_CHECK(x.sameShape(y), "kernels::axpy shape mismatch");
    bump(elementwiseCalls);
    const float *xs = x.data();
    float *ys = y.data();
    for (size_t i = 0; i < x.size(); ++i)
        ys[i] += alpha * xs[i];
}

void
rowSum(const Tensor &a, Tensor &out)
{
    CASCADE_CHECK(out.rows() == a.rows() && out.cols() == 1,
                  "kernels::rowSum output must be Rx1");
    bump(elementwiseCalls);
    for (size_t r = 0; r < a.rows(); ++r) {
        const float *row = a.row(r);
        float acc = 0.0f;
        for (size_t c = 0; c < a.cols(); ++c)
            acc += row[c];
        out.at(r, 0) = acc;
    }
}

void
colSum(const Tensor &a, Tensor &out)
{
    CASCADE_CHECK(out.rows() == 1 && out.cols() == a.cols(),
                  "kernels::colSum output must be 1xC");
    bump(elementwiseCalls);
    float *o = out.data();
    std::memset(o, 0, a.cols() * sizeof(float));
    for (size_t r = 0; r < a.rows(); ++r) {
        const float *row = a.row(r);
        for (size_t c = 0; c < a.cols(); ++c)
            o[c] += row[c];
    }
}

double
cosineOverwrite(float *dst, const float *src, size_t n)
{
    double dot = 0.0, nd = 0.0, ns = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double d = dst[i], s = src[i];
        dot += d * s;
        nd += d * d;
        ns += s * s;
        dst[i] = src[i];
    }
    if (nd < 1e-24 && ns < 1e-24)
        return 1.0;
    if (nd < 1e-24 || ns < 1e-24)
        return 0.0;
    return dot / (std::sqrt(nd) * std::sqrt(ns));
}

/* ------------------------------------------------------------------ */
/* Stats                                                               */

KernelStats
stats()
{
    KernelStats s;
    s.gemmCalls = gemmCalls.load(std::memory_order_relaxed);
    s.gemmFlops = gemmFlops.load(std::memory_order_relaxed);
    s.elementwiseCalls =
        elementwiseCalls.load(std::memory_order_relaxed);
    s.poolHits = poolHits.load(std::memory_order_relaxed);
    s.poolMisses = poolMisses.load(std::memory_order_relaxed);
    s.poolReturns = poolReturns.load(std::memory_order_relaxed);
    s.poolEvictions = poolEvictions.load(std::memory_order_relaxed);
    s.poolCachedBytes =
        poolCachedBytes.load(std::memory_order_relaxed);
    return s;
}

void
resetStats()
{
    gemmCalls.store(0, std::memory_order_relaxed);
    gemmFlops.store(0, std::memory_order_relaxed);
    elementwiseCalls.store(0, std::memory_order_relaxed);
    poolHits.store(0, std::memory_order_relaxed);
    poolMisses.store(0, std::memory_order_relaxed);
    poolReturns.store(0, std::memory_order_relaxed);
    poolEvictions.store(0, std::memory_order_relaxed);
}

} // namespace kernels

} // namespace cascade
