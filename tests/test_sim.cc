/**
 * @file
 * Tests of the timing model (src/sim).
 *
 * The load-bearing guarantees: a session is bit-identical to driving
 * uarch::Core directly (frozen golden matrix), and model lookup is
 * safe under concurrent first use (exercised under TSan in tier-1).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <type_traits>

#include "harness/gather.hh"
#include "sim/perf_model.hh"
#include "uarch/core.hh"
#include "workload/spec_suite.hh"

using namespace adaptsim;

namespace
{

constexpr std::uint64_t programLength = 100000;

uarch::SimResult
runBackend(const sim::PerfModel &model, const std::string &bench,
           const space::Configuration &cfg,
           std::uint64_t warm = 8000, std::uint64_t detail = 4000)
{
    const auto wl = workload::specBenchmark(bench, programLength);
    workload::WrongPathGenerator wp(wl.averageParams(),
                                    wl.seed() ^ 0x57a71cULL);
    const auto cc = uarch::CoreConfig::fromConfiguration(cfg);
    const auto session = model.makeSession(cc, wp);
    session->warm(wl.generate(40000 - warm, warm));
    return model.run(*session, wl.generate(40000, detail));
}

} // namespace

TEST(Sim, RegistryHasBuiltins)
{
    const auto &cycle = sim::perfModel("cycle");
    EXPECT_STREQ(cycle.name(), "cycle");
    // Tag 0: the committed data/ store's records are valid for
    // exactly this model.
    EXPECT_EQ(cycle.cacheTag(), 0u);
    EXPECT_EQ(&sim::perfModel("cycle"), &cycle);
    static_assert(!std::is_polymorphic_v<sim::PerfModel>);
    static_assert(!std::is_polymorphic_v<sim::CoreSession>);
}

TEST(SimDeathTest, UnknownBackendIsFatal)
{
    // Any name but "cycle" exits, retired model names included.
    // Threadsafe style because this binary also runs under TSan.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *name : {"interval", "learned", "nope"}) {
        EXPECT_EXIT((void)sim::perfModel(name),
                    ::testing::ExitedWithCode(1), "known: cycle\\)")
            << name;
    }
}

TEST(Sim, CycleBackendBitIdenticalToDirectCore)
{
    // The same frozen width/IQ golden matrix as
    // test_pipeline.cc:GoldenResultsAreFrozen — re-homing the
    // pipeline behind the seam must not change a single cycle.
    struct Golden
    {
        const char *bench;
        int width;
        int iq;
        std::uint64_t cycles;
        std::uint64_t committedOps;
        std::uint64_t mispredicts;
        std::uint64_t dcMisses;
        std::uint64_t wrongPathOps;
    };
    const Golden goldens[] = {
        {"eon", 4, -1, 4609ull, 4000ull, 13ull, 104ull, 381ull},
        {"gcc", 4, -1, 12152ull, 4000ull, 232ull, 816ull, 9580ull},
        {"mcf", 4, -1, 18507ull, 4000ull, 56ull, 1675ull, 3497ull},
        {"swim", 2, -1, 7212ull, 4000ull, 28ull, 422ull, 596ull},
        {"crafty", 4, 8, 9674ull, 4000ull, 196ull, 159ull, 8188ull},
        {"sixtrack", 8, -1, 4438ull, 4000ull, 13ull, 103ull,
         934ull},
        {"art", 4, 16, 5927ull, 4000ull, 6ull, 246ull, 249ull},
    };
    const auto &model = sim::perfModel("cycle");
    for (const auto &g : goldens) {
        auto cfg = harness::paperBaselineConfig();
        cfg.setValue(space::Param::Width, g.width);
        if (g.iq > 0)
            cfg.setValue(space::Param::IqSize, g.iq);
        const auto r = runBackend(model, g.bench, cfg);
        EXPECT_EQ(r.cycles, g.cycles) << g.bench;
        EXPECT_EQ(r.events.committedOps, g.committedOps) << g.bench;
        EXPECT_EQ(r.events.mispredicts, g.mispredicts) << g.bench;
        EXPECT_EQ(r.events.dcMisses, g.dcMisses) << g.bench;
        EXPECT_EQ(r.events.wrongPathOps, g.wrongPathOps) << g.bench;
    }
}

TEST(Sim, CycleBackendMatchesDirectCoreEventForEvent)
{
    // Beyond the golden fields: a full EventCounts comparison on one
    // workload, driving the exact same warm/run sequence both ways.
    const auto wl = workload::specBenchmark("gcc", programLength);
    const auto cfg = harness::paperBaselineConfig();
    const auto cc = uarch::CoreConfig::fromConfiguration(cfg);
    const auto warm = wl.generate(32000, 8000);
    const auto trace = wl.generate(40000, 4000);

    workload::WrongPathGenerator wp_direct(wl.averageParams(),
                                           wl.seed() ^ 0x57a71cULL);
    uarch::Core core(cc, wp_direct);
    core.warm(warm);
    const auto direct = core.run(trace);

    workload::WrongPathGenerator wp_seam(wl.averageParams(),
                                         wl.seed() ^ 0x57a71cULL);
    const auto &model = sim::perfModel("cycle");
    const auto session = model.makeSession(cc, wp_seam);
    session->warm(warm);
    const auto seam = model.run(*session, trace);

    EXPECT_EQ(seam.cycles, direct.cycles);
    EXPECT_EQ(seam.events.fetchedOps, direct.events.fetchedOps);
    EXPECT_EQ(seam.events.squashedOps, direct.events.squashedOps);
    EXPECT_EQ(seam.events.icMisses, direct.events.icMisses);
    EXPECT_EQ(seam.events.l2Misses, direct.events.l2Misses);
    EXPECT_EQ(seam.events.bpredLookups, direct.events.bpredLookups);
    EXPECT_EQ(seam.events.iqWakeups, direct.events.iqWakeups);
    EXPECT_EQ(seam.events.rfReads, direct.events.rfReads);
    EXPECT_EQ(seam.events.occRobSum, direct.events.occRobSum);
}

TEST(Sim, EvaluateConvenienceMatchesManualPipeline)
{
    const auto wl = workload::specBenchmark("mcf", programLength);
    const auto cfg = harness::paperBaselineConfig();
    const auto warm = wl.generate(32000, 8000);
    const auto trace = wl.generate(40000, 4000);

    workload::WrongPathGenerator wp(wl.averageParams(),
                                    wl.seed() ^ 0x57a71cULL);
    const auto m = sim::perfModel("cycle").evaluate(cfg, wp, warm,
                                                    trace);
    EXPECT_GT(m.cycles, 0.0);
    EXPECT_DOUBLE_EQ(m.instructions, 4000.0);
    EXPECT_GT(m.ipc, 0.0);
    EXPECT_GT(m.joules, 0.0);

    workload::WrongPathGenerator wp2(wl.averageParams(),
                                     wl.seed() ^ 0x57a71cULL);
    const auto m2 = sim::perfModel("cycle").evaluate(cfg, wp2, warm,
                                                     trace);
    EXPECT_DOUBLE_EQ(m2.cycles, m.cycles);
    EXPECT_DOUBLE_EQ(m2.joules, m.joules);
}

TEST(Sim, EmptyTraceYieldsEmptyResult)
{
    // Regression: zero-instruction detail windows (phase boundaries
    // can produce them) must return a well-defined zero result, not
    // divide by zero.
    const auto wl = workload::specBenchmark("gcc", programLength);
    const auto cc = uarch::CoreConfig::fromConfiguration(
        harness::paperBaselineConfig());
    const auto &model = sim::perfModel("cycle");
    workload::WrongPathGenerator wp(wl.averageParams(),
                                    wl.seed() ^ 0x57a71cULL);
    const auto session = model.makeSession(cc, wp);
    session->warm(wl.generate(32000, 8000));
    const auto r = model.run(*session, {});
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.events.committedOps, 0u);
    const auto m = session->metricsFor(r);
    EXPECT_EQ(m.instructions, 0.0);
    EXPECT_TRUE(std::isfinite(m.joules));
}

TEST(Sim, RegistryConcurrentLookupIsSafe)
{
    // First use of the model races with lookups from worker threads
    // in real benches; tier-1 runs this under TSan.
    std::vector<std::thread> threads;
    std::vector<const sim::PerfModel *> seen(8, nullptr);
    std::atomic<int> ok{0};
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&ok, &seen, t]() {
            for (int i = 0; i < 200; ++i) {
                const auto &cycle = sim::perfModel("cycle");
                seen[t] = &cycle;
                if (cycle.cacheTag() == 0)
                    ok.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(ok.load(), 8 * 200);
    for (const auto *model : seen)
        EXPECT_EQ(model, &sim::perfModel("cycle"));
}
