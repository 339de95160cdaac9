/**
 * @file
 * Supervisor tests: the constant retry/backoff schedule, supervised
 * execution with retry accounting, and strict CASCADE_FAULT_* env
 * parsing.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "train/supervisor.hh"
#include "util/fault.hh"

using namespace cascade;

namespace {

/** RAII: set an env var for one test, restoring emptiness after. */
struct EnvVar
{
    std::string name;
    EnvVar(const std::string &n, const std::string &v) : name(n)
    {
        ::setenv(name.c_str(), v.c_str(), 1);
    }
    ~EnvVar() { ::unsetenv(name.c_str()); }
};

double
counterValue(obs::MetricsRegistry &reg, const std::string &name)
{
    return reg.counter(name).value();
}

} // namespace

TEST(RetryPolicy, ExponentialGrowthWithCeiling)
{
    RetryOptions o;
    o.baseDelayMs = 10.0;
    const RetryPolicy p(o);
    double want = 10.0;
    for (size_t k = 0; k < 8; ++k, want *= 2.0)
        EXPECT_DOUBLE_EQ(p.delayMs(k), want) << "k=" << k; // 10..1280
    for (size_t k = 8; k < 16; ++k)
        EXPECT_DOUBLE_EQ(p.delayMs(k), 2000.0) << "k=" << k; // capped
}

TEST(Supervisor, RetriesUntilTheOperationSucceeds)
{
    obs::MetricsRegistry reg;
    RetryOptions ro;
    ro.maxRetries = 5;
    Supervisor sup(ro, reg);
    sup.setSleeper([](double) {}); // decisions only, no real waits

    int calls = 0;
    const bool ok = sup.runSupervised("stg", [&] {
        ++calls;
        if (calls <= 2)
            throw std::runtime_error("transient");
        return true;
    });
    EXPECT_TRUE(ok);
    EXPECT_EQ(calls, 3);
    EXPECT_DOUBLE_EQ(counterValue(reg, "stg.retries"), 2.0);
    EXPECT_DOUBLE_EQ(counterValue(reg, "stg.failures"), 2.0);
}

TEST(Supervisor, ExhaustedBudgetReturnsFalseWithTheLastError)
{
    obs::MetricsRegistry reg;
    RetryOptions ro;
    ro.maxRetries = 2;
    Supervisor sup(ro, reg);
    sup.setSleeper([](double) {});

    int calls = 0;
    ::testing::internal::CaptureStderr();
    const bool ok = sup.runSupervised("doomed", [&] {
        ++calls;
        throw std::runtime_error("kaboom");
        return true;
    });
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(ok);
    EXPECT_EQ(calls, 3); // first attempt + 2 retries
    // The give-up line names the stage, the attempts and the error.
    EXPECT_NE(log.find("stage doomed failed after 3 attempt(s): kaboom"),
              std::string::npos)
        << log;
    EXPECT_DOUBLE_EQ(counterValue(reg, "doomed.failures"), 3.0);
    EXPECT_DOUBLE_EQ(counterValue(reg, "doomed.retries"), 2.0);
}

TEST(Supervisor, FalseReturnCountsLikeAnException)
{
    obs::MetricsRegistry reg;
    RetryOptions ro;
    ro.maxRetries = 0; // fail fast
    Supervisor sup(ro, reg);
    sup.setSleeper([](double) {});

    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(sup.runSupervised("w", [] { return false; }));
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("operation reported failure"), std::string::npos)
        << log;
    EXPECT_DOUBLE_EQ(counterValue(reg, "w.failures"), 1.0);
    EXPECT_DOUBLE_EQ(counterValue(reg, "w.retries"), 0.0);
}

TEST(FaultEnv, ParsesKnownVariablesStrictly)
{
    EnvVar a("CASCADE_FAULT_WRITE_FAIL_NTH", "3");
    EnvVar b("CASCADE_FAULT_WRITE_FAIL_COUNT", "2");
    EnvVar d("CASCADE_FAULT_STAGE_LATENCY", "checkpoint=25.5");

    fault::Config cfg;
    std::vector<std::string> unknown;
    std::string error;
    ASSERT_TRUE(fault::parseEnvConfig(cfg, unknown, error)) << error;
    EXPECT_EQ(cfg.failWriteNth, 3);
    EXPECT_EQ(cfg.failWriteCount, 2);
    EXPECT_DOUBLE_EQ(cfg.checkpointLatencyMs, 25.5);
    EXPECT_TRUE(unknown.empty());
}

TEST(FaultEnv, RejectsGarbageValuesWithAClearError)
{
    EnvVar a("CASCADE_FAULT_NAN_BATCH", "3x");
    fault::Config cfg;
    std::vector<std::string> unknown;
    std::string error;
    EXPECT_FALSE(fault::parseEnvConfig(cfg, unknown, error));
    EXPECT_NE(error.find("CASCADE_FAULT_NAN_BATCH"),
              std::string::npos);
    EXPECT_NE(error.find("3x"), std::string::npos);
}

TEST(FaultEnv, RejectsMalformedStageLatency)
{
    {
        EnvVar a("CASCADE_FAULT_STAGE_LATENCY", "boundary");
        fault::Config cfg;
        std::vector<std::string> unknown;
        std::string error;
        EXPECT_FALSE(fault::parseEnvConfig(cfg, unknown, error));
        EXPECT_NE(error.find("STAGE_LATENCY"), std::string::npos);
    }
    {
        EnvVar a("CASCADE_FAULT_STAGE_LATENCY", "=5");
        fault::Config cfg;
        std::vector<std::string> unknown;
        std::string error;
        EXPECT_FALSE(fault::parseEnvConfig(cfg, unknown, error));
    }
    {
        EnvVar a("CASCADE_FAULT_STAGE_LATENCY", "model=-1");
        fault::Config cfg;
        std::vector<std::string> unknown;
        std::string error;
        EXPECT_FALSE(fault::parseEnvConfig(cfg, unknown, error));
    }
    {
        // Only the checkpoint write window takes injected latency.
        EnvVar a("CASCADE_FAULT_STAGE_LATENCY", "model=5");
        fault::Config cfg;
        std::vector<std::string> unknown;
        std::string error;
        EXPECT_FALSE(fault::parseEnvConfig(cfg, unknown, error));
        EXPECT_NE(error.find("'checkpoint'"), std::string::npos);
        EXPECT_NE(error.find("model=5"), std::string::npos);
    }
}

TEST(FaultEnv, RejectsNonPositiveWriteFailCount)
{
    EnvVar a("CASCADE_FAULT_WRITE_FAIL_COUNT", "0");
    fault::Config cfg;
    std::vector<std::string> unknown;
    std::string error;
    EXPECT_FALSE(fault::parseEnvConfig(cfg, unknown, error));
    EXPECT_NE(error.find("WRITE_FAIL_COUNT"), std::string::npos);
}

TEST(FaultEnv, ReportsUnknownFaultVariables)
{
    for (const char *name :
         {"CASCADE_FAULT_NAN_BACH", // the classic typo
          "CASCADE_FAULT_CHUNK_BUILD_FAIL"}) { // a retired knob
        SCOPED_TRACE(name);
        EnvVar a(name, "1");
        fault::Config cfg;
        std::vector<std::string> unknown;
        std::string error;
        ASSERT_TRUE(fault::parseEnvConfig(cfg, unknown, error)) << error;
        ASSERT_EQ(unknown.size(), 1u);
        EXPECT_EQ(unknown[0], name);
        // The unknown variable armed nothing.
        EXPECT_EQ(cfg.nanBatch, -1);
    }
}
