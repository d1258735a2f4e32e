/**
 * @file
 * chip-adapt: 4-core co-run mixes on a contended shared-LLC chip,
 * each run once under the per-core predictive ChipController and
 * once at the static Table III configuration.  Set-up trains the
 * per-core model from a small gather over a fixed training set; the
 * timed body never touches the repository or LOOCV, and its uarch
 * work is continuous chip runs with reconfiguration.
 *
 * The model is the same at every seed (its gather keeps the default
 * seed), so that the seed moves only the co-run composition.  The
 * mixes are a seeded shuffle of a fixed 24-program slice of the suite
 * cut into 4-core groups: every seed co-runs the same programs, once
 * each, and the seed changes who runs with whom, and on which core.
 * Drawing mixes independently (workload::specMixes) makes the work
 * itself depend on the seed, because simulation cost per µop differs
 * about 2x between programs: four such mixes took from 1.4 s to 3.9 s
 * over ten seeds.
 */

#include <cmath>
#include <cstdio>
#include <utility>

#include "common/rng.hh"
#include "control/chip_controller.hh"
#include "harness/gather.hh"
#include "harness/repository.hh"
#include "ml/trainer.hh"
#include "obs/obs.hh"
#include "sim/perf_model.hh"
#include "uarch/core_config.hh"
#include "workload/mix.hh"
#include "workload/spec_suite.hh"
#include "workload/trace_cache.hh"
#include "workloads.hh"

using namespace adaptsim;

namespace perfbench
{

namespace
{

struct ChipGeometry
{
    std::size_t cores = 4;
    std::size_t mixes = 6;
    std::uint64_t programLength = 400000;
    std::uint64_t runInsts = 16000;     ///< per core, per run
    std::uint64_t interval = 4000;
    /** Training set of the per-core model: phases tiled over the
     *  region the controller executes. */
    std::vector<std::string> trainPrograms = {"gcc", "mcf", "art",
                                              "swim"};
    std::size_t trainPhasesPerProgram = 4;
    std::uint64_t trainWarm = 12000;
    std::size_t trainSharedConfigs = 16;
    std::size_t trainNeighbours = 4;
};

/** The seed's mixes (see the file comment). */
std::vector<workload::CoRunMix>
seededMixes(const ChipGeometry &g, std::uint64_t seed)
{
    // The suite without its last two programs, sixtrack and apsi.
    std::vector<std::string> names(workload::specNames().begin(),
                                   workload::specNames().begin() +
                                       g.mixes * g.cores);
    Rng rng(seed);
    for (std::size_t i = names.size() - 1; i > 0; --i)
        std::swap(names[i], names[rng.nextBounded(i + 1)]);
    std::vector<workload::CoRunMix> mixes(g.mixes);
    for (std::size_t m = 0; m < g.mixes; ++m) {
        char label[32];
        std::snprintf(label, sizeof(label), "mix4-%02zu", m);
        mixes[m].name = label;
        mixes[m].programs.assign(names.begin() + m * g.cores,
                                 names.begin() + (m + 1) * g.cores);
    }
    return mixes;
}

/** The contended geometry: a small LLC so co-runners compete. */
uarch::ChipConfig
chipConfig(const ChipGeometry &g)
{
    auto chip = uarch::ChipConfig::homogeneous(
        harness::paperBaselineConfig(), g.cores);
    chip.llcBytes = 256 * 1024;
    chip.llcBanks = 4;
    chip.llcMshrsPerBank = 4;
    return chip;
}

/** Set-up: gather training data in a fresh data dir and train the
 *  model on the advanced counters (the same model at every seed). */
ml::AdaptivityModel
trainModel(const Options &opt, const ChipGeometry &g,
           const std::string &dir_name,
           std::vector<std::vector<double>> &features)
{
    std::vector<phase::Phase> phases;
    for (const auto &prog : g.trainPrograms) {
        for (std::size_t i = 0; i < g.trainPhasesPerProgram; ++i) {
            phase::Phase ph;
            ph.workload = prog;
            ph.index = i;
            ph.startInst = (i + 1) * g.interval;
            ph.lengthInsts = g.interval;
            ph.weight = 1.0 / double(g.trainPhasesPerProgram);
            phases.push_back(ph);
        }
    }
    harness::GatherOptions gopt;
    gopt.sharedRandomConfigs = g.trainSharedConfigs;
    gopt.localNeighbours = g.trainNeighbours;
    gopt.oneAtATimeSweep = false;
    gopt.progress = false;
    gopt.backend = &sim::perfModel("cycle");
    gopt.memo = harness::GatherOptions::MemoMode::Off;

    const auto dir = freshDir(opt, dir_name);
    std::vector<workload::Workload> suite;
    for (const auto &p : g.trainPrograms)
        suite.push_back(workload::specBenchmark(p, g.programLength));
    std::vector<ml::PhaseData> data;
    {
        harness::EvalRepository repo(std::move(suite), dir.string(),
                                     opt.threads, 1);
        const auto gathered = harness::gatherTrainingData(
            repo, phases, g.programLength, g.trainWarm, gopt);
        for (const auto &gp : gathered)
            data.push_back(
                gp.toPhaseData(counters::FeatureSet::Advanced));
    }
    std::filesystem::remove_all(dir);

    features.clear();
    for (const auto &d : data)
        features.push_back(d.features);
    Span span("ml.train");
    return ml::trainModel(data, ml::TrainerOptions{});
}

struct MixOutcome
{
    control::ChipRunStats adaptive, fixed;
    double ratio = 0.0;
};

/** The timed body: every mix, adaptive then static.  @p programs
 *  holds each mix's workloads in core order, mix after mix. */
std::vector<MixOutcome>
runMixes(const ChipGeometry &g, const std::vector<workload::CoRunMix> &mixes,
         const std::vector<workload::Workload> &programs,
         const ml::AdaptivityModel &model, Outcome &outcome)
{
    const auto chip = chipConfig(g);
    const auto &cycle = sim::perfModel("cycle");
    std::vector<MixOutcome> out;
    for (std::size_t mi = 0; mi < mixes.size(); ++mi) {
        const auto &mix = mixes[mi];
        std::vector<const workload::Workload *> wls;
        for (std::size_t c = 0; c < g.cores; ++c)
            wls.push_back(&programs[mi * g.cores + c]);
        workload::TraceCache traces(g.cores * (g.runInsts / g.interval));
        control::ChipControllerOptions copt;
        copt.intervalLength = g.interval;
        copt.initialConfig = harness::paperBaselineConfig();
        copt.chip = chip;
        copt.traceCache = &traces;
        copt.backend = &cycle;

        MixOutcome m;
        {
            Span span("control.adaptive");
            control::ChipController controller(wls, model, copt);
            m.adaptive = controller.run(g.runInsts);
        }
        {
            Span span("control.static");
            m.fixed = control::runStaticChip(
                wls, copt.initialConfig, chip, g.runInsts, g.interval,
                &traces, &cycle);
        }
        const double a = m.adaptive.meanEfficiency();
        const double s = m.fixed.meanEfficiency();
        outcome.op(positiveFinite(a) &&
                       m.adaptive.cores.size() == g.cores,
                   "adaptive run of " + mix.name);
        outcome.op(positiveFinite(s) && m.fixed.cores.size() == g.cores,
                   "static run of " + mix.name);
        m.ratio = s > 0.0 ? a / s : 0.0;
        out.push_back(m);
    }
    return out;
}

std::string
chipDigest(const std::vector<MixOutcome> &runs)
{
    Digest d;
    for (const auto &m : runs) {
        for (const auto *stats : {&m.adaptive, &m.fixed}) {
            for (const auto &c : stats->cores) {
                d.add(c.instructions);
                d.add(c.seconds);
                d.add(c.joules);
                d.add(c.reconfigurations);
                d.add(c.profilingIntervals);
            }
        }
        d.add(m.ratio);
    }
    return d.hex();
}

} // namespace

void
runChipAdapt(const Options &opt, Sheet &sheet, Outcome &outcome)
{
    const ChipGeometry g;
    const auto mixes = seededMixes(g, opt.seed);
    std::vector<double> setups, walls;
    std::string first_digest, model_digest;
    std::size_t reps = 0;

    std::vector<workload::Workload> programs;
    ml::AdaptivityModel model;
    std::vector<std::vector<double>> features;

    // Set-up runs in the warm-up, the traced pass and the first
    // kSetups timed passes; later timed passes reuse its model, so
    // that most of the run's time goes to the body.
    constexpr std::size_t kSetups = 3;
    auto rep = [&](Pass pass) -> double {
        const bool set_up = pass != Pass::Timed || setups.size() < kSetups;
        double setup = 0.0;
        if (set_up) {
            const auto t0 = Clock::now();
            programs.clear();
            for (const auto &mix : mixes) {
                for (const auto &name : mix.programs)
                    programs.push_back(
                        workload::specBenchmark(name, g.programLength));
            }
            model = trainModel(opt, g, "train" + std::to_string(reps),
                               features);
            setup = secondsSince(t0);

            Digest d;
            for (const auto &f : features)
                d.add(model.predict(f).encode());
            outcome.check(model_digest.empty() || d.hex() == model_digest,
                          "retrained model differs");
            model_digest = d.hex();
        }

        if (pass == Pass::Traced) {
            // The body's layers only: set-up gathered through the
            // repository, which this workload's body never uses.
            const double train_s = layerClock().seconds("ml.train");
            obs::Registry::global().reset();
            layerClock().clear();
            layerClock().add("ml.train", train_s);
        }
        const auto t1 = Clock::now();
        const double c1 = processCpuSeconds();
        const auto runs = runMixes(g, mixes, programs, model, outcome);
        const double wall = secondsSince(t1);
        const double cpu = processCpuSeconds() - c1;

        const std::string digest = chipDigest(runs);
        if (reps == 0) {
            outcome.digest("chip", digest);
            outcome.digest("model", model_digest);
            first_digest = digest;
            for (std::size_t i = 0; i < runs.size(); ++i) {
                std::string programs_of;
                for (const auto &p : mixes[i].programs)
                    programs_of += (programs_of.empty() ? "" : "+") + p;
                std::printf("chip-adapt: %s (%s) adaptive/static "
                            "efficiency %.4fx\n",
                            mixes[i].name.c_str(), programs_of.c_str(),
                            runs[i].ratio);
            }
        } else {
            outcome.check(digest == first_digest,
                          "repetition outputs differ");
        }
        for (const auto &m : runs)
            outcome.check(positiveFinite(m.ratio), "efficiency ratio");
        std::printf("rep %zu (%s): setup %.4f s, wall %.4f s, cpu %.4f s\n",
                    reps, passName(pass), setup, wall, cpu);
        ++reps;
        if (pass == Pass::Timed) {
            if (set_up)
                setups.push_back(setup);
            walls.push_back(wall);
        }
        if (pass != Pass::Traced)
            return setup + wall;

        const auto snap = obs::Registry::global().snapshot();
        const LayerClock &lc = layerClock();
        sheet.set("ml.train_s", lc.seconds("ml.train"));
        // AdaptivityModel::predict, replayed on the training features.
        std::size_t calls = 0;
        bool stable = true;
        const auto tp = Clock::now();
        for (int round = 0; round < 50; ++round) {
            Digest again;
            for (const auto &f : features) {
                again.add(model.predict(f).encode());
                ++calls;
            }
            stable = stable && again.hex() == model_digest;
        }
        sheet.set("ml.predict_us",
                  1e6 * ratio(secondsSince(tp), double(calls)));
        outcome.check(stable, "model predictions are deterministic");

        sheet.set("control.adaptive_s", lc.seconds("control.adaptive"));
        sheet.set("control.static_s", lc.seconds("control.static"));
        double intervals = 0, profiling = 0, reconfigs = 0;
        for (const auto &m : runs) {
            for (const auto &c : m.adaptive.cores) {
                intervals += double(c.intervals);
                profiling += double(c.profilingIntervals);
                reconfigs += double(c.reconfigurations);
            }
        }
        sheet.set("control.intervals", intervals);
        sheet.set("control.profiling_intervals", profiling);
        sheet.set("control.reconfigurations", reconfigs);
        const auto chip_run = spanTotals(snap, "uarch/chip_run");
        const double chip_uops =
            double(counterSum(snap, "chip/core/", "/committed_ops"));
        sheet.set("uarch.chip_run_s", chip_run.seconds);
        sheet.set("uarch.chip_uops_per_s",
                  ratio(chip_uops, chip_run.seconds));
        const auto profile = spanTotals(snap, "control/chip_profile");
        sheet.set("counters.profile_s", profile.seconds);
        sheet.set("counters.profiles", double(profile.count));

        // Trace generation: replay each trace the body's per-mix
        // caches generated once.
        double gen_s = 0.0, uops = 0.0;
        bool same = true;
        for (const auto &wl : programs) {
            for (std::uint64_t i = 0; i < g.runInsts / g.interval; ++i) {
                const auto tg = Clock::now();
                const auto trace = wl.generate(i * g.interval, g.interval);
                gen_s += secondsSince(tg);
                uops += double(trace.size());
                same = same && trace.size() == g.interval;
            }
        }
        outcome.check(same, "replayed traces have interval length");
        sheet.set("workload.generate_s", gen_s);
        sheet.set("workload.uops_generated", uops);
        sheet.set("workload.generate_uops_per_s", ratio(uops, gen_s));
        setCommonLayerMetrics(snap, wall, median(walls), sheet);
        return setup + wall;
    };

    schedule(opt, 3, rep);
    if (opt.trace)
        return;
    sheet.set("wall_s", median(walls));
    sheet.set("setup_s", median(setups));
}

} // namespace perfbench
