/**
 * @file
 * Reproducible hot-path benchmark runner (README "Benchmarking the
 * compute kernels").
 *
 * Measures blocked-GEMM throughput (GFLOP/s) with fixed seeds across
 * shapes, each with its operand orientation (ta, tb), and pinned
 * thread counts, against the retained naive seed kernel with the same
 * orientation as the single-threaded baseline, and fails if a small
 * shape gets slower as threads are added (the parallel-cutover
 * check). The shapes include the three GEMMs of an APAN training step
 * at dim 64 (forward NN, input gradient NT, weight gradient TN).
 * End-to-end training throughput is perfbench's (perfbench/README.md),
 * measured on realistic workloads.
 *
 * Each timing is a trimmed mean: one untimed warmup run, then `reps`
 * timed runs with the min and max dropped (when reps >= 3). Results
 * are written as BENCH_hotpath.json (schema cascade.bench_hotpath.v3,
 * documented in the README) with an environment block naming the
 * machine, compiler, build and commit; `--smoke` shrinks shapes/reps
 * to a seconds-long CI smoke run.
 *
 * Usage: bench_hotpath [--smoke] [--reps N] [--out PATH]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bench_env.hh"
#include "tensor/kernels.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/timer.hh"

using namespace cascade;
using kernels::Trans;

namespace {

/** C = op(A) * op(B) with op(A) m x k and op(B) k x n. */
struct GemmShape { size_t m, k, n; Trans ta, tb; };

char
transName(Trans t)
{
    return t == Trans::None ? 'N' : 'T';
}

struct GemmResult
{
    GemmShape shape;
    size_t threads;
    double seconds;     ///< trimmed-mean blocked-kernel time
    double gflops;      ///< blocked-kernel throughput
    double naiveSeconds;///< trimmed-mean naive reference time
    double naiveGflops; ///< naive single-thread throughput
};

/** Trimmed mean: drop min and max when there are >= 3 samples. */
double
trimmedMean(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    size_t lo = 0, hi = samples.size();
    if (samples.size() >= 3) {
        ++lo;
        --hi;
    }
    const double sum =
        std::accumulate(samples.begin() + lo, samples.begin() + hi, 0.0);
    return sum / static_cast<double>(hi - lo);
}

/** Time fn() `reps` times after one untimed warmup. */
template <typename Fn>
double
timeTrimmed(size_t reps, Fn &&fn)
{
    fn(); // warmup
    std::vector<double> samples;
    samples.reserve(reps);
    for (size_t r = 0; r < reps; ++r) {
        Timer t;
        fn();
        samples.push_back(t.seconds());
    }
    return trimmedMean(std::move(samples));
}

GemmResult
benchGemmShape(const GemmShape &s, size_t threads, size_t reps,
               size_t naive_reps)
{
    Rng rng(1234);
    // Stored shapes: a transposed operand is kept as op(X)^T.
    Tensor a = s.ta == Trans::None ? Tensor::randn(s.m, s.k, rng)
                                   : Tensor::randn(s.k, s.m, rng);
    Tensor b = s.tb == Trans::None ? Tensor::randn(s.k, s.n, rng)
                                   : Tensor::randn(s.n, s.k, rng);
    Tensor out(s.m, s.n);
    const double flop = 2.0 * double(s.m) * double(s.k) * double(s.n);

    ThreadPool::setGlobalThreads(threads);
    GemmResult res;
    res.shape = s;
    res.threads = threads;
    res.seconds = timeTrimmed(
        reps, [&] { kernels::gemm(s.ta, s.tb, a, b, out); });
    res.gflops = res.seconds > 0.0 ? flop / res.seconds / 1e9 : 0.0;

    // Naive reference is single-threaded by construction; it is the
    // baseline regardless of the pinned thread count.
    res.naiveSeconds = timeTrimmed(naive_reps, [&] {
        Tensor c = kernels::naiveGemm(s.ta, s.tb, a, b);
    });
    res.naiveGflops =
        res.naiveSeconds > 0.0 ? flop / res.naiveSeconds / 1e9 : 0.0;
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    size_t reps = 5;
    std::string out_path = "BENCH_hotpath.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            reps = static_cast<size_t>(std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_hotpath [--smoke] [--reps N] "
                         "[--out PATH]\n");
            return 2;
        }
    }
    if (smoke)
        reps = std::min<size_t>(reps, 2);

    // Read before any pool thread exists: it forks.
    const std::string env = bench::envJson();

    // The 512^3 point backs the documented >=3x acceptance threshold;
    // the odd shape exercises the register-tile edge paths. The last
    // three are an APAN step at dim 64 over a 1800-row batch: forward
    // (1800x244 input by 244x64 weight), input gradient dC * W^T and
    // weight gradient X^T * dC, whose 244 columns end in a padded
    // 52-column panel. The smoke run keeps small NT and TN shapes
    // that still cross the parallel cutover at 2 threads.
    constexpr Trans N = Trans::None, T = Trans::Transpose;
    const std::vector<GemmShape> shapes = smoke
        ? std::vector<GemmShape>{{32, 32, 32, N, N},
                                 {64, 64, 64, N, N},
                                 {600, 64, 244, N, T},
                                 {244, 600, 64, T, N}}
        : std::vector<GemmShape>{{64, 64, 64, N, N},
                                 {128, 256, 64, N, N},
                                 {512, 512, 512, N, N},
                                 {513, 511, 129, N, N},
                                 {1800, 244, 64, N, N},
                                 {1800, 64, 244, N, T},
                                 {244, 1800, 64, T, N}};
    const std::vector<size_t> thread_counts = smoke
        ? std::vector<size_t>{1, 2}
        : std::vector<size_t>{1, 2, 4, 8};

    std::vector<GemmResult> results;
    for (const GemmShape &s : shapes) {
        // The naive kernel is slow at 512^3; one warmup + few reps.
        const size_t naive_reps =
            (s.m * s.k * s.n >= (1ull << 26)) ? std::min<size_t>(reps, 3)
                                              : reps;
        for (size_t t : thread_counts) {
            results.push_back(benchGemmShape(s, t, reps, naive_reps));
            const GemmResult &r = results.back();
            std::printf("gemm %4zux%4zux%4zu %c%c  threads=%zu  "
                        "%8.2f GF/s  (naive %6.2f GF/s, %5.1fx)\n",
                        r.shape.m, r.shape.k, r.shape.n,
                        transName(r.shape.ta), transName(r.shape.tb),
                        r.threads,
                        r.gflops, r.naiveGflops,
                        r.naiveGflops > 0.0 ? r.gflops / r.naiveGflops
                                            : 0.0);
        }
    }
    ThreadPool::setGlobalThreads(0);

    // Regression gate for the small-shape parallel cutover: 128x256x64
    // (2^22 flops) must never get slower when threads are added. The
    // thread-count-blind cutover regressed exactly this way — 39x over
    // naive at 1 thread collapsing to 9x at 8 — so assert that every
    // pinned thread count stays within 2x of the single-thread time
    // (generous against timer noise; the regression was ~4.3x). The
    // bigger shapes are skipped: their serial baselines are noisy and
    // the 512^3 acceptance threshold already covers them.
    for (const GemmShape &s : shapes) {
        if (!(s.m == 128 && s.k == 256 && s.n == 64))
            continue;
        double t1 = 0.0;
        for (const GemmResult &r : results)
            if (r.shape.m == s.m && r.shape.k == s.k &&
                r.shape.n == s.n && r.threads == 1)
                t1 = r.seconds;
        for (const GemmResult &r : results) {
            if (!(r.shape.m == s.m && r.shape.k == s.k &&
                  r.shape.n == s.n))
                continue;
            if (t1 > 0.0 && r.seconds > 2.0 * t1) {
                std::fprintf(stderr,
                             "FAIL: gemm %zux%zux%zu at %zu threads "
                             "took %.3e s vs %.3e s single-threaded "
                             "(>2x): the parallel cutover regressed "
                             "small shapes again\n",
                             s.m, s.k, s.n, r.threads, r.seconds, t1);
                return 1;
            }
        }
    }

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench_hotpath: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"cascade.bench_hotpath.v3\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"reps\": %zu,\n", reps);
    std::fprintf(f, "  \"seed\": 1234,\n");
    std::fprintf(f, "  \"env\": %s,\n", env.c_str());
    std::fprintf(f, "  \"gemm\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
        const GemmResult &r = results[i];
        std::fprintf(
            f,
            "    {\"m\": %zu, \"k\": %zu, \"n\": %zu, \"ta\": \"%c\", "
            "\"tb\": \"%c\", \"threads\": %zu, "
            "\"seconds\": %.6e, \"gflops\": %.3f, "
            "\"naive_seconds\": %.6e, \"naive_gflops\": %.3f, "
            "\"speedup_vs_naive\": %.2f}%s\n",
            r.shape.m, r.shape.k, r.shape.n, transName(r.shape.ta),
            transName(r.shape.tb), r.threads, r.seconds,
            r.gflops, r.naiveSeconds, r.naiveGflops,
            r.naiveGflops > 0.0 ? r.gflops / r.naiveGflops : 0.0,
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    if (std::fclose(f) != 0) {
        std::fprintf(stderr, "close failed: %s\n", out_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
