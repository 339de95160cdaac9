#include "bench_env.hh"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>

namespace cascade {
namespace bench {

namespace {

/** The first "model name" of /proc/cpuinfo. */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    }
    return "unavailable";
}

/** HEAD of the source tree this binary was configured from, with
 *  "-dirty" when tracked files differ from it. */
std::string
gitCommit()
{
    const std::string cmd = std::string("cd '") + CASCADE_SOURCE_DIR +
        "' 2>/dev/null && git rev-parse HEAD 2>/dev/null && "
        "{ git diff --quiet HEAD 2>/dev/null || echo dirty; }";
    std::FILE *p = popen(cmd.c_str(), "r");
    if (!p)
        return "unavailable";
    char sha[64] = {}, dirty[16] = {};
    const bool got = std::fgets(sha, sizeof sha, p) != nullptr;
    const bool is_dirty = got && std::fgets(dirty, sizeof dirty, p);
    const int status = pclose(p);
    const size_t len = std::strcspn(sha, "\r\n");
    if (status != 0 || len != 40)
        return "unavailable";
    return std::string(sha, len) + (is_dirty ? "-dirty" : "");
}

/** s as a JSON string literal. */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

} // namespace

std::string
envJson()
{
    return "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
        ", \"cpu_model\": " + jsonString(cpuModel()) +
        ", \"compiler\": " + jsonString(CASCADE_COMPILER) +
        ", \"build_type\": " + jsonString(CASCADE_BUILD_TYPE) +
        ", \"kernel_flags\": " + jsonString(CASCADE_KERNEL_FLAGS) +
        ", \"git_commit\": " + jsonString(gitCommit()) + "}";
}

} // namespace bench
} // namespace cascade
