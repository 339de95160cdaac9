/**
 * @file
 * External worker killer: SIGKILL sharded training workers from the
 * outside, by PID, while the run is live.
 *
 * chaos_kill exercises whole-process death (the supervisor itself
 * dies and the next launch resumes from the checkpoint family). This
 * tool exercises the other fault domain PR 8 introduced: one *worker*
 * of a sharded worker group dies, the supervisor stays up, detects
 * the loss through the broken socket or a missed heartbeat deadline,
 * folds the dead worker's shards into the survivors and finishes the
 * run with a bit-identical model. The built-in fault knob
 * (CASCADE_FAULT_WORKER_KILL_NTH) is cooperative — the worker kills
 * itself at a chosen batch; this tool is uncooperative: it reads the
 * supervisor's PID roster and delivers SIGKILL from a separate
 * process at seeded-random wall-clock times, so the kill can land
 * anywhere: mid-compute, mid-frame-write, between batches.
 *
 *   chaos_worker_kill --roster ck.bin.workers --kills 2 --seed 7
 *
 * The roster (`<checkpoint>.workers`) is maintained by
 * WorkerGroup::writePidRoster — a CRC-framed text file of
 * "pid rank" lines, rewritten whenever the group membership changes
 * and removed at shutdown. Per round this tool:
 *
 *   1. polls until the roster exists and lists >= 2 workers (killing
 *      the last worker would only test the worker-local rung, which
 *      the fault matrix already covers);
 *   2. picks a seeded-random entry and SIGKILLs it;
 *   3. waits until the supervisor rewrites the roster without that
 *      pid — proof the death was *detected and rebalanced*, not just
 *      delivered.
 *
 * Exits 0 with a summary line the soak script asserts on:
 *
 *   chaos_worker_kill: kills=2 requested=2 rebalances_seen=2
 *
 * A training run that finishes (roster removed) before the kill
 * budget is spent is reported in the summary (kills < requested);
 * the caller decides whether that is acceptable. POSIX-only by
 * design, like chaos_kill.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

#include "util/binio.hh"

namespace {

struct Options
{
    std::string roster;
    long kills = 2;
    unsigned long long seed = 7;
    double waitRosterS = 60.0;  // roster must appear within this
    double detectS = 60.0;      // supervisor must rebalance within this
    double spacingMs = 300.0;   // pause between kill rounds
    double initialDelayMs = 0.0;
};

/** SplitMix64: tiny, seedable, good enough for victim selection. */
struct Rng
{
    unsigned long long s;
    explicit Rng(unsigned long long seed) : s(seed) {}
    unsigned long long
    next()
    {
        unsigned long long z = (s += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
};

struct RosterEntry
{
    long pid = 0;
    long rank = 0;
};

void
sleepMs(double ms)
{
    if (ms <= 0)
        return;
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(ms / 1000.0);
    ts.tv_nsec =
        static_cast<long>((ms - static_cast<double>(ts.tv_sec) * 1000.0) *
                          1e6);
    nanosleep(&ts, nullptr);
}

double
nowS()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * Parse the roster into entries. False when the file is absent,
 * mid-rewrite (CRC mismatch — writeFileAtomic makes this a narrow
 * window, but poll loops must tolerate it) or malformed.
 */
bool
readRoster(const std::string &path, std::vector<RosterEntry> &out)
{
    out.clear();
    std::string text;
    if (!cascade::readFileValidated(path, text))
        return false;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        RosterEntry e;
        if (std::sscanf(line.c_str(), "%ld %ld", &e.pid, &e.rank) != 2)
            return false;
        if (e.pid <= 0 || e.rank < 0)
            return false;
        out.push_back(e);
    }
    return true;
}

bool
rosterListsPid(const std::vector<RosterEntry> &roster, long pid)
{
    for (const RosterEntry &e : roster)
        if (e.pid == pid)
            return true;
    return false;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --roster FILE [--kills N] [--seed S]\n"
        "          [--wait-roster-s T] [--detect-s T]\n"
        "          [--spacing-ms MS] [--initial-delay-ms MS]\n",
        argv0);
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    int i = 1;
    auto need = [&](const char *flag) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value\n", flag);
            return nullptr;
        }
        return argv[++i];
    };
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *v = nullptr;
        if (arg == "--roster" && (v = need("--roster"))) {
            o.roster = v;
        } else if (arg == "--kills" && (v = need("--kills"))) {
            o.kills = std::atol(v);
        } else if (arg == "--seed" && (v = need("--seed"))) {
            o.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--wait-roster-s" &&
                   (v = need("--wait-roster-s"))) {
            o.waitRosterS = std::atof(v);
        } else if (arg == "--detect-s" && (v = need("--detect-s"))) {
            o.detectS = std::atof(v);
        } else if (arg == "--spacing-ms" && (v = need("--spacing-ms"))) {
            o.spacingMs = std::atof(v);
        } else if (arg == "--initial-delay-ms" &&
                   (v = need("--initial-delay-ms"))) {
            o.initialDelayMs = std::atof(v);
        } else {
            std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
            return false;
        }
    }
    return !o.roster.empty() && o.kills >= 0 && o.waitRosterS > 0 &&
           o.detectS > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, o)) {
        usage(argv[0]);
        return 2;
    }
    Rng rng(o.seed);
    sleepMs(o.initialDelayMs);

    long kills = 0;
    long rebalances_seen = 0;
    bool run_finished = false;
    for (long round = 0; round < o.kills && !run_finished; ++round) {
        // Wait for a roster with enough workers left to survive one
        // more loss. Vanishing mid-poll means the run finished.
        std::vector<RosterEntry> roster;
        const double deadline = nowS() + o.waitRosterS;
        bool have_victims = false;
        bool seen_roster = false;
        while (nowS() < deadline) {
            if (readRoster(o.roster, roster)) {
                seen_roster = true;
                if (roster.size() >= 2) {
                    have_victims = true;
                    break;
                }
            } else if (seen_roster &&
                       !cascade::fileExists(o.roster)) {
                run_finished = true;
                break;
            }
            sleepMs(25.0);
        }
        if (run_finished)
            break;
        if (!have_victims) {
            std::fprintf(stderr,
                         "chaos_worker_kill: no killable roster at %s "
                         "after %.0f s (round %ld)\n",
                         o.roster.c_str(), o.waitRosterS, round);
            return 1;
        }

        const RosterEntry victim =
            roster[static_cast<size_t>(rng.next() % roster.size())];
        if (::kill(static_cast<pid_t>(victim.pid), SIGKILL) != 0) {
            // Lost a race with a natural exit or a supervisor kill;
            // the roster will catch up. Not a failure — retry the
            // round against a fresh roster.
            std::fprintf(stderr,
                         "chaos_worker_kill: pid %ld already gone "
                         "(%s); rereading roster\n",
                         victim.pid, std::strerror(errno));
            --round;
            continue;
        }
        ++kills;
        std::fprintf(stderr,
                     "chaos_worker_kill: SIGKILLed worker rank %ld "
                     "(pid %ld)\n",
                     victim.rank, victim.pid);

        // The kill only counts as survived when the supervisor
        // notices: wait for a roster rewrite without the victim.
        const double detect_deadline = nowS() + o.detectS;
        bool detected = false;
        while (nowS() < detect_deadline) {
            if (!cascade::fileExists(o.roster)) {
                // Shutdown removed the roster; the run completed with
                // the death already handled.
                detected = true;
                run_finished = true;
                break;
            }
            if (readRoster(o.roster, roster) &&
                !rosterListsPid(roster, victim.pid)) {
                detected = true;
                break;
            }
            sleepMs(25.0);
        }
        if (!detected) {
            std::fprintf(stderr,
                         "chaos_worker_kill: supervisor never removed "
                         "pid %ld from the roster within %.0f s\n",
                         victim.pid, o.detectS);
            return 1;
        }
        ++rebalances_seen;
        sleepMs(o.spacingMs);
    }

    std::printf("chaos_worker_kill: kills=%ld requested=%ld "
                "rebalances_seen=%ld\n",
                kills, o.kills, rebalances_seen);
    return 0;
}
