/**
 * @file
 * End-to-end tests of the adaptive controller (Fig. 2 loop).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "control/chip_controller.hh"
#include "control/controller.hh"
#include "harness/gather.hh"
#include "harness/repository.hh"
#include "sim/perf_model.hh"
#include "space/sampling.hh"
#include "workload/spec_suite.hh"

using namespace adaptsim;
using namespace adaptsim::control;

namespace
{

/** An untrained (all-ones weights) model always predicts index 0 —
 *  good enough to exercise the control loop mechanics. */
ml::AdaptivityModel
dummyModel()
{
    return ml::AdaptivityModel(counters::featureDimension(
        counters::FeatureSet::Advanced));
}

} // namespace

TEST(RunStats, DerivedQuantities)
{
    RunStats s;
    s.instructions = 1000;
    s.seconds = 1e-6;
    s.joules = 2e-6;
    EXPECT_NEAR(s.ips(), 1e9, 1.0);
    EXPECT_NEAR(s.watts(), 2.0, 1e-9);
    EXPECT_NEAR(s.efficiency(), 1e27 / 2.0, 1e18);
}

TEST(Controller, RunStaticAccumulatesAllIntervals)
{
    const auto wl = workload::specBenchmark("gzip", 100000);
    const auto stats = runStatic(
        wl, harness::paperBaselineConfig(), 30000, 5000);
    EXPECT_EQ(stats.intervals, 6u);
    EXPECT_EQ(stats.instructions, 30000u);
    EXPECT_GT(stats.seconds, 0.0);
    EXPECT_GT(stats.joules, 0.0);
    EXPECT_GT(stats.efficiency(), 0.0);
}

TEST(Controller, AdaptiveRunExecutesEverything)
{
    const auto wl = workload::specBenchmark("gap", 200000);
    const auto model = dummyModel();
    ControllerOptions opt;
    opt.intervalLength = 5000;
    opt.initialConfig = harness::paperBaselineConfig();
    AdaptiveController controller(wl, model, opt);
    const auto stats = controller.run(60000);

    EXPECT_EQ(stats.intervals, 12u);
    EXPECT_EQ(stats.instructions, 60000u);
    EXPECT_GE(stats.phaseChanges, 1u);   // at least the first phase
    EXPECT_GE(stats.profilingIntervals, 1u);
    EXPECT_EQ(stats.profilingIntervals,
              controller.phasePredictions().size());
}

TEST(Controller, TraceCachedRunsMatchUncachedBitExactly)
{
    // Both controller entry points accept an optional shared trace
    // cache; replayed traces must leave every statistic identical.
    const auto wl = workload::specBenchmark("gzip", 100000);
    workload::TraceCache cache;

    const auto plain = runStatic(
        wl, harness::paperBaselineConfig(), 30000, 5000);
    const auto cached = runStatic(
        wl, harness::paperBaselineConfig(), 30000, 5000, &cache);
    EXPECT_EQ(cached.seconds, plain.seconds);
    EXPECT_EQ(cached.joules, plain.joules);
    EXPECT_EQ(cached.instructions, plain.instructions);
    EXPECT_EQ(cache.misses(), 6u);   // one generation per interval

    const auto model = dummyModel();
    ControllerOptions opt;
    opt.intervalLength = 5000;
    opt.initialConfig = harness::paperBaselineConfig();
    AdaptiveController uncached_ctl(wl, model, opt);
    const auto a = uncached_ctl.run(30000);
    opt.traceCache = &cache;   // pre-warmed by the static runs
    AdaptiveController cached_ctl(wl, model, opt);
    const auto b = cached_ctl.run(30000);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.joules, b.joules);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.intervals, b.intervals);
    EXPECT_EQ(a.reconfigurations, b.reconfigurations);
    EXPECT_EQ(cache.misses(), 6u);   // adaptive run was all hits
}

TEST(Controller, ReconfiguresOncePerNewPhaseAtMost)
{
    const auto wl = workload::specBenchmark("gap", 200000);
    const auto model = dummyModel();
    ControllerOptions opt;
    opt.intervalLength = 5000;
    opt.initialConfig = harness::paperBaselineConfig();
    AdaptiveController controller(wl, model, opt);
    const auto stats = controller.run(80000);
    EXPECT_LE(stats.reconfigurations, stats.phaseChanges);
    // The all-zeros prediction differs from the baseline: at least
    // one reconfiguration must have occurred and cost cycles.
    EXPECT_GE(stats.reconfigurations, 1u);
    EXPECT_GT(stats.reconfigCycles, 0u);
}

TEST(Controller, RecurringPhasesReuseStoredPredictions)
{
    // gzip alternates scan/match segments: the same phases recur.
    const auto wl = workload::specBenchmark("gzip", 200000);
    const auto model = dummyModel();
    ControllerOptions opt;
    opt.intervalLength = 4000;
    opt.initialConfig = harness::paperBaselineConfig();
    AdaptiveController controller(wl, model, opt);
    const auto stats = controller.run(160000);
    // Far fewer profiling intervals than total intervals: recurring
    // behaviour must be recognised, not re-profiled.
    EXPECT_LT(stats.profilingIntervals, stats.intervals / 2);
}

TEST(Controller, ProfilingOverheadIsCharged)
{
    const auto wl = workload::specBenchmark("eon", 100000);
    const auto model = dummyModel();
    ControllerOptions opt;
    opt.intervalLength = 5000;
    opt.initialConfig = harness::paperBaselineConfig();
    AdaptiveController controller(wl, model, opt);
    const auto stats = controller.run(40000);
    // Every executed instruction is accounted exactly once.
    EXPECT_EQ(stats.instructions, 40000u);
    EXPECT_GT(stats.joules, 0.0);
}

TEST(ChipController, StaticChipAccumulatesAllIntervalsPerCore)
{
    const auto a = workload::specBenchmark("gzip", 100000);
    const auto b = workload::specBenchmark("gap", 100000);
    const auto chip = uarch::ChipConfig::homogeneous(
        harness::paperBaselineConfig(), 2);
    const auto stats =
        runStaticChip({&a, &b}, harness::paperBaselineConfig(), chip,
                      30000, 5000);
    ASSERT_EQ(stats.cores.size(), 2u);
    for (const auto &core : stats.cores) {
        EXPECT_EQ(core.intervals, 6u);
        EXPECT_EQ(core.instructions, 30000u);
        EXPECT_GT(core.seconds, 0.0);
        EXPECT_GT(core.joules, 0.0);
    }
    EXPECT_EQ(stats.totalInstructions(), 60000u);
    EXPECT_GT(stats.meanEfficiency(), 0.0);
    ASSERT_EQ(stats.interference.size(), 2u);
    EXPECT_GT(stats.interference[0].occupancyShare, 0.0);
    EXPECT_GT(stats.interference[1].occupancyShare, 0.0);
}

TEST(ChipController, AdaptiveChipRunsEveryCoreToCompletion)
{
    const auto a = workload::specBenchmark("gap", 200000);
    const auto b = workload::specBenchmark("mcf", 200000);
    const auto model = dummyModel();
    ChipControllerOptions opt;
    opt.intervalLength = 5000;
    opt.initialConfig = harness::paperBaselineConfig();
    opt.chip = uarch::ChipConfig::homogeneous(
        harness::paperBaselineConfig(), 2);
    ChipController controller({&a, &b}, model, opt);
    const auto stats = controller.run(60000);

    ASSERT_EQ(stats.cores.size(), 2u);
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(stats.cores[c].intervals, 12u) << c;
        EXPECT_EQ(stats.cores[c].instructions, 60000u) << c;
        EXPECT_GE(stats.cores[c].profilingIntervals, 1u) << c;
        // Each core keeps its own per-phase prediction table.
        EXPECT_EQ(stats.cores[c].profilingIntervals,
                  controller.phasePredictions(c).size())
            << c;
    }
}

TEST(ChipController, SingleCoreChipMatchesTheSingleCoreController)
{
    // On a one-core chip the whole chip layer must collapse to the
    // classic controller: identical interval accounting and timing.
    const auto wl = workload::specBenchmark("gzip", 200000);
    const auto model = dummyModel();

    ControllerOptions solo_opt;
    solo_opt.intervalLength = 5000;
    solo_opt.initialConfig = harness::paperBaselineConfig();
    AdaptiveController solo(wl, model, solo_opt);
    const auto want = solo.run(60000);

    ChipControllerOptions opt;
    opt.intervalLength = 5000;
    opt.initialConfig = harness::paperBaselineConfig();
    opt.chip = uarch::ChipConfig::homogeneous(
        harness::paperBaselineConfig(), 1);
    ChipController chip({&wl}, model, opt);
    const auto got = chip.run(60000);

    ASSERT_EQ(got.cores.size(), 1u);
    EXPECT_EQ(got.cores[0].intervals, want.intervals);
    EXPECT_EQ(got.cores[0].instructions, want.instructions);
    EXPECT_EQ(got.cores[0].phaseChanges, want.phaseChanges);
    EXPECT_EQ(got.cores[0].reconfigurations, want.reconfigurations);
    EXPECT_EQ(got.cores[0].seconds, want.seconds);
    EXPECT_EQ(got.cores[0].joules, want.joules);
}
