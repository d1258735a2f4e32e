/**
 * @file
 * Tests of the environment-variable knobs.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.hh"

using namespace adaptsim;

TEST(Env, DoubleFallback)
{
    unsetenv("ADAPTSIM_TEST_D");
    EXPECT_EQ(envDouble("ADAPTSIM_TEST_D", 2.5), 2.5);
    setenv("ADAPTSIM_TEST_D", "1.25", 1);
    EXPECT_EQ(envDouble("ADAPTSIM_TEST_D", 2.5), 1.25);
    setenv("ADAPTSIM_TEST_D", "garbage", 1);
    EXPECT_EQ(envDouble("ADAPTSIM_TEST_D", 2.5), 2.5);
    unsetenv("ADAPTSIM_TEST_D");
}

TEST(Env, LongFallback)
{
    unsetenv("ADAPTSIM_TEST_L");
    EXPECT_EQ(envLong("ADAPTSIM_TEST_L", 7), 7);
    setenv("ADAPTSIM_TEST_L", "42", 1);
    EXPECT_EQ(envLong("ADAPTSIM_TEST_L", 7), 42);
    unsetenv("ADAPTSIM_TEST_L");
}

TEST(Env, StringFallback)
{
    unsetenv("ADAPTSIM_TEST_S");
    EXPECT_EQ(envString("ADAPTSIM_TEST_S", "dflt"), "dflt");
    setenv("ADAPTSIM_TEST_S", "custom", 1);
    EXPECT_EQ(envString("ADAPTSIM_TEST_S", "dflt"), "custom");
    unsetenv("ADAPTSIM_TEST_S");
}

TEST(Env, ScaleRejectsNonPositive)
{
    setenv("ADAPTSIM_SCALE", "-3", 1);
    EXPECT_EQ(experimentScale(), 1.0);
    setenv("ADAPTSIM_SCALE", "0.5", 1);
    EXPECT_EQ(experimentScale(), 0.5);
    unsetenv("ADAPTSIM_SCALE");
}

TEST(Env, ThreadsPositive)
{
    unsetenv("ADAPTSIM_THREADS");
    EXPECT_GE(numThreads(), 1u);
    setenv("ADAPTSIM_THREADS", "3", 1);
    EXPECT_EQ(numThreads(), 3u);
    setenv("ADAPTSIM_THREADS", "-2", 1);
    EXPECT_GE(numThreads(), 1u);
    unsetenv("ADAPTSIM_THREADS");
}

TEST(Env, LongPartialParseAndEmpty)
{
    setenv("ADAPTSIM_TEST_L", "", 1);
    EXPECT_EQ(envLong("ADAPTSIM_TEST_L", 7), 7);
    // strtol stops at the first non-digit; a leading number wins.
    setenv("ADAPTSIM_TEST_L", "12abc", 1);
    EXPECT_EQ(envLong("ADAPTSIM_TEST_L", 7), 12);
    setenv("ADAPTSIM_TEST_L", "abc", 1);
    EXPECT_EQ(envLong("ADAPTSIM_TEST_L", 7), 7);
    unsetenv("ADAPTSIM_TEST_L");
}

TEST(Env, DataDirDefaultAndOverride)
{
    unsetenv("ADAPTSIM_DATA_DIR");
    EXPECT_EQ(dataDir(), "data");
    setenv("ADAPTSIM_DATA_DIR", "/tmp/cache", 1);
    EXPECT_EQ(dataDir(), "/tmp/cache");
    unsetenv("ADAPTSIM_DATA_DIR");
}

TEST(Env, FlushEveryDefaultAndClamp)
{
    unsetenv("ADAPTSIM_FLUSH_EVERY");
    EXPECT_EQ(flushEvery(), 64u);
    setenv("ADAPTSIM_FLUSH_EVERY", "128", 1);
    EXPECT_EQ(flushEvery(), 128u);
    // Zero and negative clamp to the minimum of 1.
    setenv("ADAPTSIM_FLUSH_EVERY", "0", 1);
    EXPECT_EQ(flushEvery(), 1u);
    setenv("ADAPTSIM_FLUSH_EVERY", "-5", 1);
    EXPECT_EQ(flushEvery(), 1u);
    setenv("ADAPTSIM_FLUSH_EVERY", "garbage", 1);
    EXPECT_EQ(flushEvery(), 64u);
    unsetenv("ADAPTSIM_FLUSH_EVERY");
}

TEST(Env, MetricsTristate)
{
    unsetenv("ADAPTSIM_METRICS");
    EXPECT_TRUE(metricsEnabled());
    EXPECT_EQ(metricsJsonPath(), "");
    setenv("ADAPTSIM_METRICS", "1", 1);
    EXPECT_TRUE(metricsEnabled());
    EXPECT_EQ(metricsJsonPath(), "");
    setenv("ADAPTSIM_METRICS", "0", 1);
    EXPECT_FALSE(metricsEnabled());
    EXPECT_EQ(metricsJsonPath(), "");
    setenv("ADAPTSIM_METRICS", "off", 1);
    EXPECT_FALSE(metricsEnabled());
    // Any other value doubles as the JSON dump path.
    setenv("ADAPTSIM_METRICS", "out/metrics.json", 1);
    EXPECT_TRUE(metricsEnabled());
    EXPECT_EQ(metricsJsonPath(), "out/metrics.json");
    unsetenv("ADAPTSIM_METRICS");
}

TEST(Env, TraceKnobs)
{
    unsetenv("ADAPTSIM_TRACE");
    EXPECT_FALSE(traceEnabled());
    setenv("ADAPTSIM_TRACE", "0", 1);
    EXPECT_FALSE(traceEnabled());
    setenv("ADAPTSIM_TRACE", "off", 1);
    EXPECT_FALSE(traceEnabled());
    setenv("ADAPTSIM_TRACE", "1", 1);
    EXPECT_TRUE(traceEnabled());
    unsetenv("ADAPTSIM_TRACE");

    unsetenv("ADAPTSIM_TRACE_FILE");
    EXPECT_EQ(traceFile(), "adaptsim_trace.json");
    setenv("ADAPTSIM_TRACE_FILE", "t.json", 1);
    EXPECT_EQ(traceFile(), "t.json");
    unsetenv("ADAPTSIM_TRACE_FILE");
}

TEST(Env, TraceCacheCapacityDefaultAndClamp)
{
    unsetenv("ADAPTSIM_TRACE_CACHE");
    EXPECT_EQ(traceCacheCapacity(), 48u);
    setenv("ADAPTSIM_TRACE_CACHE", "6", 1);
    EXPECT_EQ(traceCacheCapacity(), 6u);
    // Zero and negative clamp to the minimum of 1.
    setenv("ADAPTSIM_TRACE_CACHE", "0", 1);
    EXPECT_EQ(traceCacheCapacity(), 1u);
    setenv("ADAPTSIM_TRACE_CACHE", "-9", 1);
    EXPECT_EQ(traceCacheCapacity(), 1u);
    setenv("ADAPTSIM_TRACE_CACHE", "garbage", 1);
    EXPECT_EQ(traceCacheCapacity(), 48u);
    unsetenv("ADAPTSIM_TRACE_CACHE");
}

TEST(Env, CycleTrace)
{
    unsetenv("ADAPTSIM_CYCLE_TRACE");
    EXPECT_FALSE(cycleTraceEnabled());
    setenv("ADAPTSIM_CYCLE_TRACE", "0", 1);
    EXPECT_FALSE(cycleTraceEnabled());
    setenv("ADAPTSIM_CYCLE_TRACE", "off", 1);
    EXPECT_FALSE(cycleTraceEnabled());
    setenv("ADAPTSIM_CYCLE_TRACE", "1", 1);
    EXPECT_TRUE(cycleTraceEnabled());
    unsetenv("ADAPTSIM_CYCLE_TRACE");
}

TEST(Env, BackendNameDefaultAndOverride)
{
    unsetenv("ADAPTSIM_BACKEND");
    EXPECT_EQ(backendName(), "cycle");
    setenv("ADAPTSIM_BACKEND", "interval", 1);
    EXPECT_EQ(backendName(), "interval");
    setenv("ADAPTSIM_BACKEND", "", 1);
    EXPECT_EQ(backendName(), "cycle");
    unsetenv("ADAPTSIM_BACKEND");
}

TEST(Env, CascadeThresholdDefaultAndOverride)
{
    unsetenv("ADAPTSIM_CASCADE_THRESHOLD");
    EXPECT_EQ(cascadeThreshold(), 0.08);
    setenv("ADAPTSIM_CASCADE_THRESHOLD", "0.25", 1);
    EXPECT_EQ(cascadeThreshold(), 0.25);
    // Negative values are legal: they force every cascade run to
    // escalate (the bit-exactness escape hatch).
    setenv("ADAPTSIM_CASCADE_THRESHOLD", "-1", 1);
    EXPECT_EQ(cascadeThreshold(), -1.0);
    setenv("ADAPTSIM_CASCADE_THRESHOLD", "garbage", 1);
    EXPECT_EQ(cascadeThreshold(), 0.08);
    unsetenv("ADAPTSIM_CASCADE_THRESHOLD");
}

TEST(Env, SurrogatePathDefaultsEmpty)
{
    unsetenv("ADAPTSIM_SURROGATE");
    EXPECT_EQ(surrogatePath(), "");
    setenv("ADAPTSIM_SURROGATE", "/tmp/weights.txt", 1);
    EXPECT_EQ(surrogatePath(), "/tmp/weights.txt");
    unsetenv("ADAPTSIM_SURROGATE");
}

TEST(Env, GatherMemoOnOffSwitch)
{
    unsetenv("ADAPTSIM_GATHER_MEMO");
    EXPECT_TRUE(gatherMemoEnabled());
    setenv("ADAPTSIM_GATHER_MEMO", "1", 1);
    EXPECT_TRUE(gatherMemoEnabled());
    // "0" and "off" are the bit-exactness escape hatch: every phase
    // takes the full pre-memo sampling path.
    setenv("ADAPTSIM_GATHER_MEMO", "0", 1);
    EXPECT_FALSE(gatherMemoEnabled());
    setenv("ADAPTSIM_GATHER_MEMO", "off", 1);
    EXPECT_FALSE(gatherMemoEnabled());
    unsetenv("ADAPTSIM_GATHER_MEMO");
}

TEST(Env, GatherMemoThresholdAndTolerance)
{
    unsetenv("ADAPTSIM_GATHER_MEMO_THRESHOLD");
    EXPECT_EQ(gatherMemoThreshold(), 0.25);
    setenv("ADAPTSIM_GATHER_MEMO_THRESHOLD", "0.1", 1);
    EXPECT_EQ(gatherMemoThreshold(), 0.1);
    unsetenv("ADAPTSIM_GATHER_MEMO_THRESHOLD");

    unsetenv("ADAPTSIM_GATHER_MEMO_TOLERANCE");
    EXPECT_EQ(gatherMemoTolerance(), 0.1);
    setenv("ADAPTSIM_GATHER_MEMO_TOLERANCE", "0.05", 1);
    EXPECT_EQ(gatherMemoTolerance(), 0.05);
    // Negative is legal: every recognised phase escalates to full
    // re-characterisation.
    setenv("ADAPTSIM_GATHER_MEMO_TOLERANCE", "-1", 1);
    EXPECT_EQ(gatherMemoTolerance(), -1.0);
    unsetenv("ADAPTSIM_GATHER_MEMO_TOLERANCE");
}

TEST(Env, GatherMemoProbesDefaultAndMinimum)
{
    unsetenv("ADAPTSIM_GATHER_MEMO_PROBES");
    EXPECT_EQ(gatherMemoProbes(), 1u);
    setenv("ADAPTSIM_GATHER_MEMO_PROBES", "3", 1);
    EXPECT_EQ(gatherMemoProbes(), 3u);
    // A recognised phase always re-measures at least one config.
    setenv("ADAPTSIM_GATHER_MEMO_PROBES", "0", 1);
    EXPECT_EQ(gatherMemoProbes(), 1u);
    setenv("ADAPTSIM_GATHER_MEMO_PROBES", "-2", 1);
    EXPECT_EQ(gatherMemoProbes(), 1u);
    unsetenv("ADAPTSIM_GATHER_MEMO_PROBES");
}

TEST(Env, ChipCoresRejectsOutOfRange)
{
    unsetenv("ADAPTSIM_CHIP_CORES");
    EXPECT_EQ(chipCores(), 1u);
    setenv("ADAPTSIM_CHIP_CORES", "4", 1);
    EXPECT_EQ(chipCores(), 4u);
    setenv("ADAPTSIM_CHIP_CORES", "8", 1);
    EXPECT_EQ(chipCores(), 8u);
    // Out-of-range values are REJECTED (typed warning + default),
    // never clamped: a silently shrunk chip invalidates any co-run
    // comparison made with it.
    setenv("ADAPTSIM_CHIP_CORES", "0", 1);
    EXPECT_EQ(chipCores(), 1u);
    setenv("ADAPTSIM_CHIP_CORES", "9", 1);
    EXPECT_EQ(chipCores(), 1u);
    setenv("ADAPTSIM_CHIP_CORES", "-2", 1);
    EXPECT_EQ(chipCores(), 1u);
    // Trailing garbage is a typo, not a number (strict parse).
    setenv("ADAPTSIM_CHIP_CORES", "4x", 1);
    EXPECT_EQ(chipCores(), 1u);
    setenv("ADAPTSIM_CHIP_CORES", "garbage", 1);
    EXPECT_EQ(chipCores(), 1u);
    unsetenv("ADAPTSIM_CHIP_CORES");
}

TEST(Env, LlcBanksRejectsNonPowerOfTwo)
{
    unsetenv("ADAPTSIM_LLC_BANKS");
    EXPECT_EQ(llcBanks(), 8u);
    setenv("ADAPTSIM_LLC_BANKS", "1", 1);
    EXPECT_EQ(llcBanks(), 1u);
    setenv("ADAPTSIM_LLC_BANKS", "16", 1);
    EXPECT_EQ(llcBanks(), 16u);
    setenv("ADAPTSIM_LLC_BANKS", "64", 1);
    EXPECT_EQ(llcBanks(), 64u);
    // Rejected with a warning, keeping the default — not clamped.
    setenv("ADAPTSIM_LLC_BANKS", "12", 1);
    EXPECT_EQ(llcBanks(), 8u);
    setenv("ADAPTSIM_LLC_BANKS", "0", 1);
    EXPECT_EQ(llcBanks(), 8u);
    setenv("ADAPTSIM_LLC_BANKS", "128", 1);
    EXPECT_EQ(llcBanks(), 8u);
    setenv("ADAPTSIM_LLC_BANKS", "-8", 1);
    EXPECT_EQ(llcBanks(), 8u);
    setenv("ADAPTSIM_LLC_BANKS", "8banks", 1);
    EXPECT_EQ(llcBanks(), 8u);
    unsetenv("ADAPTSIM_LLC_BANKS");
}

TEST(Env, MixSeedRejectsOutOfRange)
{
    unsetenv("ADAPTSIM_MIX_SEED");
    EXPECT_EQ(mixSeed(), 2010u);
    setenv("ADAPTSIM_MIX_SEED", "0", 1);
    EXPECT_EQ(mixSeed(), 0u);
    setenv("ADAPTSIM_MIX_SEED", "12345", 1);
    EXPECT_EQ(mixSeed(), 12345u);
    setenv("ADAPTSIM_MIX_SEED", "4294967295", 1);
    EXPECT_EQ(mixSeed(), 4294967295u);
    // Out of the u32 range or malformed: warned and defaulted.
    setenv("ADAPTSIM_MIX_SEED", "-1", 1);
    EXPECT_EQ(mixSeed(), 2010u);
    setenv("ADAPTSIM_MIX_SEED", "4294967296", 1);
    EXPECT_EQ(mixSeed(), 2010u);
    setenv("ADAPTSIM_MIX_SEED", "20ten", 1);
    EXPECT_EQ(mixSeed(), 2010u);
    unsetenv("ADAPTSIM_MIX_SEED");
}
