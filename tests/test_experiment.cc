/**
 * @file
 * Full-stack experiment tests: a miniature suite → phases → gather →
 * baseline → LOOCV run in a temporary cache directory, and the
 * paper's Fig. 4, 5 and 6 headlines reproduced from a copy of the
 * committed data/ store.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <vector>

#include "common/stats.hh"
#include "harness/baselines.hh"
#include "harness/experiment.hh"

using namespace adaptsim;
using namespace adaptsim::harness;

namespace
{

ExperimentOptions
tinyOptions(const std::string &dir)
{
    ExperimentOptions opt;
    opt.programLength = 24000;
    opt.intervalLength = 1200;
    opt.warmLength = 1200;
    opt.phasesPerProgram = 2;
    opt.gather.sharedRandomConfigs = 6;
    opt.gather.localNeighbours = 2;
    opt.gather.oneAtATimeSweep = false;
    opt.trainer.cg.maxIterations = 30;
    opt.dataDir = dir;
    opt.threads = 0;
    return opt;
}

} // namespace

TEST(Experiment, EndToEndTinyScale)
{
    const std::string dir = "/tmp/adaptsim_experiment_test";
    std::filesystem::remove_all(dir);

    {
        Experiment exp(tinyOptions(dir));
        const auto &phases = exp.phases();
        // 26 programs × up to 2 phases.
        EXPECT_GE(phases.size(), 26u);
        EXPECT_LE(phases.size(), 52u);

        // Baseline must be a member of the shared pool.
        const auto &baseline = exp.baselineConfig();
        bool in_pool = false;
        for (const auto &cfg : exp.sharedPool())
            in_pool = in_pool || cfg == baseline;
        EXPECT_TRUE(in_pool);

        // Every phase can price the baseline.
        for (std::size_t i = 0; i < phases.size(); ++i)
            EXPECT_GT(exp.baselineEfficiency(i), 0.0);

        // Program grouping covers all phases exactly once.
        std::size_t grouped = 0;
        for (const auto &[name, idxs] : exp.phasesByProgram())
            grouped += idxs.size();
        EXPECT_EQ(grouped, phases.size());

        // LOOCV model results exist for every phase and are
        // positive.
        const auto &results =
            exp.modelResults(counters::FeatureSet::Basic);
        ASSERT_EQ(results.size(), phases.size());
        for (const auto &r : results)
            EXPECT_GT(r.efficiency, 0.0);

        // Relative efficiency of the baseline itself is exactly 1.
        const auto &first_prog =
            exp.phasesByProgram().begin()->second;
        const double rel = exp.relativeEfficiency(
            first_prog, [&](std::size_t i) {
                return exp.baselineEfficiency(i);
            });
        EXPECT_NEAR(rel, 1.0, 1e-9);
    }

    // A second Experiment over the same directory reuses everything.
    {
        Experiment exp(tinyOptions(dir));
        exp.phases();
        EXPECT_EQ(exp.repository().simulationsRun(), 0u);
    }

    std::filesystem::remove_all(dir);
}

TEST(CommittedData, Fig4HeadlineIsFrozen)
{
    // The paper's headline results, regenerated from the committed
    // store at full scale: Fig. 4's average efficiency of the LOOCV
    // model over the best static configuration, Fig. 6's reference
    // points (per-program specialised static, per-phase best
    // dynamic) and Fig. 5's performance and energy split.  They must
    // need no simulation and reproduce the frozen geomeans; a change
    // to the simulator, gather, trainer or store that moves any of
    // them fails here.  Work on a copy so no test can touch tracked
    // files.
    namespace fs = std::filesystem;
    const std::string dir = "/tmp/adaptsim_fig4_frozen_test";
    fs::remove_all(dir);
    fs::copy(ADAPTSIM_SOURCE_DATA_DIR, dir, fs::copy_options::recursive);

    ExperimentOptions opt;
    opt.dataDir = dir;
    opt.threads = 2;
    opt.gather.memo = GatherOptions::MemoMode::On;
    Experiment exp(opt);
    const auto &basic = exp.modelResults(counters::FeatureSet::Basic);
    const auto &advanced =
        exp.modelResults(counters::FeatureSet::Advanced);
    auto &repo = exp.repository();
    std::vector<double> basic_rel, advanced_rel, spec_rel, dyn_rel;
    std::vector<double> perf_rel, energy_rel;
    for (const auto &[program, idxs] : exp.phasesByProgram()) {
        basic_rel.push_back(exp.relativeEfficiency(
            idxs, [&](std::size_t i) { return basic[i].efficiency; }));
        advanced_rel.push_back(exp.relativeEfficiency(
            idxs,
            [&](std::size_t i) { return advanced[i].efficiency; }));

        // Fig. 6, as bench/fig6_vs_ideal.cc computes it.
        std::vector<GatheredPhase> program_phases;
        for (std::size_t i : idxs)
            program_phases.push_back(exp.phases()[i]);
        const auto spec_cfg =
            bestStaticForProgram(program_phases, exp.sharedPool());
        spec_rel.push_back(exp.relativeEfficiency(
            idxs, [&](std::size_t i) {
                return efficiencyOn(exp.phases()[i], spec_cfg);
            }));
        dyn_rel.push_back(exp.relativeEfficiency(
            idxs, [&](std::size_t i) {
                return bestDynamic(exp.phases()[i]).efficiency;
            }));

        // Fig. 5, as bench/fig5_perf_energy_breakdown.cc computes it.
        double log_perf = 0.0, log_energy = 0.0, wsum = 0.0;
        for (std::size_t i : idxs) {
            const auto &phase = exp.phases()[i];
            const auto base =
                repo.evaluate(phase.spec, exp.baselineConfig());
            const auto pred =
                repo.evaluate(phase.spec, advanced[i].config);
            const double base_ips = base.instructions / base.seconds;
            const double pred_ips = pred.instructions / pred.seconds;
            if (base_ips <= 0 || pred_ips <= 0 || base.joules <= 0 ||
                pred.joules <= 0)
                continue;
            const double w =
                phase.phase.weight > 0 ? phase.phase.weight : 1.0;
            log_perf += w * std::log(pred_ips / base_ips);
            log_energy += w * std::log(pred.joules / base.joules);
            wsum += w;
        }
        perf_rel.push_back(std::exp(log_perf / wsum));
        energy_rel.push_back(std::exp(log_energy / wsum));
    }
    EXPECT_EQ(repo.simulationsRun(), 0u);

    // Frozen from the reference build: 1.34x advanced, 1.27x basic.
    const double frozen_advanced = 1.341331339388016;
    const double frozen_basic = 1.2730294144535839;
    EXPECT_NEAR(geomean(advanced_rel), frozen_advanced,
                1e-9 * frozen_advanced);
    EXPECT_NEAR(geomean(basic_rel), frozen_basic, 1e-9 * frozen_basic);

    // Fig. 6 (model = Fig. 4's advanced figure, 82% of the best
    // dynamic in log space) and Fig. 5, frozen the same way.
    const double frozen_spec = 1.0361361422719602;
    const double frozen_dyn = 1.43162228447601;
    EXPECT_NEAR(geomean(spec_rel), frozen_spec, 1e-9 * frozen_spec);
    EXPECT_NEAR(geomean(dyn_rel), frozen_dyn, 1e-9 * frozen_dyn);
    const double frozen_perf = 1.1392729356956397;
    const double frozen_energy = 0.96765264770489012;
    EXPECT_NEAR(geomean(perf_rel), frozen_perf, 1e-9 * frozen_perf);
    EXPECT_NEAR(geomean(energy_rel), frozen_energy,
                1e-9 * frozen_energy);

    fs::remove_all(dir);
}
