/**
 * @file
 * The machine and build a bench ran on: the `env` object that
 * BENCH_hotpath.json and BENCH_serve.json both record (README). The
 * build facts come from tools/CMakeLists.txt.
 */

#ifndef CASCADE_TOOLS_BENCH_ENV_HH
#define CASCADE_TOOLS_BENCH_ENV_HH

#include <string>

namespace cascade {
namespace bench {

/**
 * JSON object with `nproc`, `cpu_model` (/proc/cpuinfo), `compiler`,
 * `build_type`, `kernel_flags` (the kernels.cc compile options) and
 * `git_commit` (HEAD of the configured source tree, `-dirty` when
 * tracked files differ from it, or "unavailable"). Call it before any
 * thread is started: reading the commit forks.
 */
std::string envJson();

} // namespace bench
} // namespace cascade

#endif // CASCADE_TOOLS_BENCH_ENV_HH
