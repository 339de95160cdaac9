#include "util/fault.hh"

#include <cstdlib>
#include <limits>

#include "util/env.hh"
#include "util/logging.hh"
#include "util/thread_annotations.hh"

extern char **environ;

namespace cascade {
namespace fault {

namespace {

struct State
{
    Config cfg;
    long writeCalls = 0;
    bool writeArmed = false;
    bool tornArmed = false;
    bool shortArmed = false;
    bool enospcArmed = false;
    bool nanArmed = false;
    bool crashArmed = false;
    /** Per-entry one-shot flags for cfg.workerKills. */
    std::vector<char> workerKillArmed;
    bool workerHangArmed = false;
    size_t injected = 0;
    bool initialized = false;
};

/**
 * The process-global trigger state and the mutex that guards every
 * access to it: the background checkpoint writer consults the write
 * triggers and the checkpoint latency while the training thread
 * consults the batch triggers. Bundling the two lets -Wthread-safety
 * check that no trigger path reads the state without the lock.
 */
struct GuardedState
{
    AnnotatedMutex m;
    State s CASCADE_GUARDED_BY(m);
};

GuardedState &
guarded()
{
    static GuardedState g;
    return g;
}

void
arm(State &s)
{
    s.writeCalls = 0;
    s.writeArmed = s.cfg.failWriteNth > 0 && s.cfg.failWriteCount > 0;
    s.tornArmed = s.cfg.tornWriteNth > 0;
    s.shortArmed = s.cfg.shortWriteBytes >= 0;
    s.enospcArmed = s.cfg.enospcNth > 0;
    s.nanArmed = s.cfg.nanBatch >= 0;
    s.crashArmed = s.cfg.crashBatch >= 0;
    s.workerKillArmed.assign(s.cfg.workerKills.size(), 1);
    s.workerHangArmed = s.cfg.workerHangBatch >= 0 && s.cfg.hangMs > 0.0;
    s.injected = 0;
    s.initialized = true;
}

/** Known CASCADE_FAULT_* variables (env interface). */
const char *const kKnownVars[] = {
    "CASCADE_FAULT_WRITE_FAIL_NTH",
    "CASCADE_FAULT_WRITE_FAIL_COUNT",
    "CASCADE_FAULT_TORN_WRITE_NTH",
    "CASCADE_FAULT_SHORT_WRITE_BYTES",
    "CASCADE_FAULT_ENOSPC_NTH",
    "CASCADE_FAULT_NAN_BATCH",
    "CASCADE_FAULT_CRASH_BATCH",
    "CASCADE_FAULT_STAGE_LATENCY",
    "CASCADE_FAULT_WORKER_KILL_NTH",
    "CASCADE_FAULT_WORKER_HANG_MS",
};

bool
readLongVar(const char *name, long &out, std::string &error)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return true;
    if (!parseLongStrict(v, out)) {
        error = std::string(name) + ": invalid integer '" + v + "'";
        return false;
    }
    return true;
}

/** First-use initialization from the environment (CLI runs). */
State &
ensureInitLocked(GuardedState &g) CASCADE_REQUIRES(g.m)
{
    State &s = g.s;
    if (!s.initialized) {
        std::vector<std::string> unknown;
        std::string error;
        Config cfg;
        if (!parseEnvConfig(cfg, unknown, error))
            CASCADE_FATAL(error.c_str());
        for (const std::string &name : unknown)
            CASCADE_LOG("warning: unrecognized fault variable %s "
                        "(known triggers are listed in "
                        "util/fault.hh)",
                        name.c_str());
        s.cfg = cfg;
        arm(s);
    }
    return s;
}

} // namespace

bool
parseEnvConfig(Config &out, std::vector<std::string> &unknown,
               std::string &error)
{
    Config cfg;
    if (!readLongVar("CASCADE_FAULT_WRITE_FAIL_NTH", cfg.failWriteNth,
                     error) ||
        !readLongVar("CASCADE_FAULT_WRITE_FAIL_COUNT",
                     cfg.failWriteCount, error) ||
        !readLongVar("CASCADE_FAULT_TORN_WRITE_NTH", cfg.tornWriteNth,
                     error) ||
        !readLongVar("CASCADE_FAULT_SHORT_WRITE_BYTES",
                     cfg.shortWriteBytes, error) ||
        !readLongVar("CASCADE_FAULT_ENOSPC_NTH", cfg.enospcNth,
                     error) ||
        !readLongVar("CASCADE_FAULT_NAN_BATCH", cfg.nanBatch, error) ||
        !readLongVar("CASCADE_FAULT_CRASH_BATCH", cfg.crashBatch,
                     error)) {
        return false;
    }
    if (cfg.failWriteCount <= 0) {
        error = "CASCADE_FAULT_WRITE_FAIL_COUNT: must be >= 1";
        return false;
    }
    const char *shortVar =
        std::getenv("CASCADE_FAULT_SHORT_WRITE_BYTES");
    if (shortVar && *shortVar && cfg.shortWriteBytes < 0) {
        error = "CASCADE_FAULT_SHORT_WRITE_BYTES: must be >= 0";
        return false;
    }

    const char *lat = std::getenv("CASCADE_FAULT_STAGE_LATENCY");
    if (lat && *lat) {
        const std::string text(lat);
        const size_t eq = text.find('=');
        double ms = 0.0;
        if (eq == std::string::npos || eq == 0 ||
            !parseDoubleStrict(text.substr(eq + 1), ms) || ms < 0.0) {
            error = "CASCADE_FAULT_STAGE_LATENCY: expected "
                    "'checkpoint=<ms>' with ms >= 0, got '" +
                    text + "'";
            return false;
        }
        if (text.compare(0, eq, "checkpoint") != 0) {
            error = "CASCADE_FAULT_STAGE_LATENCY: only the "
                    "'checkpoint' stage takes injected latency, got '" +
                    text + "'";
            return false;
        }
        cfg.checkpointLatencyMs = ms;
    }

    const char *kills = std::getenv("CASCADE_FAULT_WORKER_KILL_NTH");
    if (kills && *kills) {
        const std::string text(kills);
        size_t pos = 0;
        while (pos <= text.size()) {
            size_t comma = text.find(',', pos);
            if (comma == std::string::npos)
                comma = text.size();
            const std::string entry = text.substr(pos, comma - pos);
            const size_t at = entry.find('@');
            long batch = -1, rank = 0;
            const bool ok =
                !entry.empty() &&
                parseLongStrict(entry.substr(0, at), batch) &&
                batch >= 0 &&
                (at == std::string::npos ||
                 (parseLongStrict(entry.substr(at + 1), rank) &&
                  rank >= 0));
            if (!ok) {
                error = "CASCADE_FAULT_WORKER_KILL_NTH: expected "
                        "'B[@R],...' with B,R >= 0, got '" +
                        text + "'";
                return false;
            }
            cfg.workerKills.emplace_back(batch, rank);
            pos = comma + 1;
        }
    }

    const char *hang = std::getenv("CASCADE_FAULT_WORKER_HANG_MS");
    if (hang && *hang) {
        const std::string text(hang);
        const size_t at = text.find('@');
        const size_t eq = text.find('=', at == std::string::npos
                                            ? 0 : at + 1);
        long batch = -1, rank = 0;
        double ms = 0.0;
        const bool ok =
            at != std::string::npos && eq != std::string::npos &&
            at > 0 && eq > at + 1 &&
            parseLongStrict(text.substr(0, at), batch) && batch >= 0 &&
            parseLongStrict(text.substr(at + 1, eq - at - 1), rank) &&
            rank >= 0 &&
            parseDoubleStrict(text.substr(eq + 1), ms) && ms >= 0.0;
        if (!ok) {
            error = "CASCADE_FAULT_WORKER_HANG_MS: expected "
                    "'B@R=ms' with B,R >= 0 and ms >= 0, got '" +
                    text + "'";
            return false;
        }
        cfg.workerHangBatch = batch;
        cfg.workerHangRank = rank;
        cfg.hangMs = ms;
    }

    // Catch typos: any other CASCADE_FAULT_* variable is unknown.
    for (char **env = environ; env && *env; ++env) {
        const std::string entry(*env);
        if (entry.rfind("CASCADE_FAULT_", 0) != 0)
            continue;
        const std::string name = entry.substr(0, entry.find('='));
        bool known = false;
        for (const char *k : kKnownVars)
            known = known || name == k;
        if (!known)
            unknown.push_back(name);
    }

    out = cfg;
    return true;
}

void
configure(const Config &config)
{
    GuardedState &g = guarded();
    LockGuard lock(g.m);
    g.s.cfg = config;
    arm(g.s);
}

void
reset()
{
    configure(Config{});
}

WriteFaultAction
onAtomicFileWrite(const std::string &path)
{
    (void)path;
    GuardedState &g = guarded();
    LockGuard lock(g.m);
    State &s = ensureInitLocked(g);
    WriteFaultAction act;
    if (!s.writeArmed && !s.tornArmed && !s.shortArmed &&
        !s.enospcArmed) {
        return act;
    }
    ++s.writeCalls;

    // Precedence: FailEarly > Enospc > Torn > Short (documented in
    // fault.hh); each trigger disarms independently so a plan can
    // stack, say, one ENOSPC followed by one torn write.
    if (s.writeArmed) {
        if (s.writeCalls >=
            s.cfg.failWriteNth + s.cfg.failWriteCount) {
            s.writeArmed = false;
        } else if (s.writeCalls >= s.cfg.failWriteNth) {
            ++s.injected;
            act.kind = WriteFaultAction::Kind::FailEarly;
            return act;
        }
    }
    if (s.enospcArmed && s.writeCalls == s.cfg.enospcNth) {
        s.enospcArmed = false;
        ++s.injected;
        act.kind = WriteFaultAction::Kind::Enospc;
        return act;
    }
    if (s.tornArmed && s.writeCalls == s.cfg.tornWriteNth) {
        s.tornArmed = false;
        ++s.injected;
        act.kind = WriteFaultAction::Kind::Torn;
        return act;
    }
    if (s.shortArmed) {
        s.shortArmed = false;
        ++s.injected;
        act.kind = WriteFaultAction::Kind::Short;
        act.bytes = s.cfg.shortWriteBytes;
        return act;
    }
    return act;
}

bool
maybeInjectNan(uint64_t globalBatch, double &loss)
{
    GuardedState &g = guarded();
    LockGuard lock(g.m);
    State &s = ensureInitLocked(g);
    if (!s.nanArmed ||
        globalBatch != static_cast<uint64_t>(s.cfg.nanBatch)) {
        return false;
    }
    s.nanArmed = false;
    ++s.injected;
    loss = std::numeric_limits<double>::quiet_NaN();
    return true;
}

bool
crashAfter(uint64_t globalBatch)
{
    GuardedState &g = guarded();
    LockGuard lock(g.m);
    State &s = ensureInitLocked(g);
    if (!s.crashArmed ||
        globalBatch != static_cast<uint64_t>(s.cfg.crashBatch)) {
        return false;
    }
    s.crashArmed = false;
    ++s.injected;
    return true;
}

double
checkpointLatencyMs()
{
    GuardedState &g = guarded();
    LockGuard lock(g.m);
    State &s = ensureInitLocked(g);
    if (s.cfg.checkpointLatencyMs <= 0.0)
        return 0.0;
    ++s.injected;
    return s.cfg.checkpointLatencyMs;
}

bool
workerKillNow(uint64_t globalBatch, size_t rank)
{
    GuardedState &g = guarded();
    LockGuard lock(g.m);
    State &s = ensureInitLocked(g);
    for (size_t i = 0; i < s.cfg.workerKills.size(); ++i) {
        if (!s.workerKillArmed[i])
            continue;
        const auto &kill = s.cfg.workerKills[i];
        if (globalBatch == static_cast<uint64_t>(kill.first) &&
            rank == static_cast<size_t>(kill.second)) {
            s.workerKillArmed[i] = 0;
            ++s.injected;
            return true;
        }
    }
    return false;
}

double
workerStallMs(uint64_t globalBatch, size_t rank)
{
    GuardedState &g = guarded();
    LockGuard lock(g.m);
    State &s = ensureInitLocked(g);
    if (!s.workerHangArmed ||
        globalBatch != static_cast<uint64_t>(s.cfg.workerHangBatch) ||
        rank != static_cast<size_t>(s.cfg.workerHangRank)) {
        return 0.0;
    }
    s.workerHangArmed = false;
    ++s.injected;
    return s.cfg.hangMs;
}

size_t
injectedCount()
{
    GuardedState &g = guarded();
    LockGuard lock(g.m);
    return ensureInitLocked(g).injected;
}

} // namespace fault
} // namespace cascade
