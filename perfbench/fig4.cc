/**
 * @file
 * fig4-cold and fig4-warm: the Fig. 4 pipeline (SimPoint extraction,
 * Sec. V-C gather through the disk-cached repository, best static
 * baseline, leave-one-program-out prediction for both counter sets,
 * per-program relative efficiency) on a fixed subset of the suite.
 *
 * The subset keeps both the parallel gather and the serial LOOCV a
 * large share of a cold repetition.  The pipeline is the one
 * harness::Experiment runs, written out here from the same public
 * calls so that each layer can be timed and the subset chosen.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/rng.hh"
#include "common/serial.hh"
#include "harness/baselines.hh"
#include "harness/gather.hh"
#include "harness/gather_scheduler.hh"
#include "harness/repository.hh"
#include "harness/thread_pool.hh"
#include "ml/cross_validation.hh"
#include "obs/obs.hh"
#include "phase/kmeans.hh"
#include "phase/simpoint.hh"
#include "sim/perf_model.hh"
#include "workload/spec_suite.hh"
#include "workloads.hh"

using namespace adaptsim;

namespace perfbench
{

namespace
{

/** The fixed slice of the Fig. 4 experiment every repetition runs. */
struct Geometry
{
    std::vector<std::string> programs = {"gzip",  "mcf",    "vortex",
                                         "art",   "equake", "lucas"};
    std::uint64_t programLength = 150000;
    std::uint64_t intervalLength = 3000;
    std::uint64_t warmLength = 6000;
    std::size_t phasesPerProgram = 3;
    std::size_t sharedRandomConfigs = 16;
    std::size_t localNeighbours = 4;
};

/** Seeding of a repository simulation's wrong-path stream (the
 *  repository's canonical choice; the replay check below fails if
 *  the two ever disagree). */
constexpr std::uint64_t kWrongPathSalt = 0x57a71cULL;

const sim::PerfModel &
cycleModel()
{
    return sim::perfModel("cycle");
}

harness::GatherOptions
gatherOptions(const Geometry &g, std::uint64_t seed,
              harness::GatherScheduler *sched)
{
    harness::GatherOptions gopt;
    gopt.sharedRandomConfigs = g.sharedRandomConfigs;
    gopt.localNeighbours = g.localNeighbours;
    gopt.oneAtATimeSweep = true;
    gopt.progress = false;
    gopt.seed = seed;
    gopt.backend = &cycleModel();
    gopt.memo = harness::GatherOptions::MemoMode::On;
    gopt.scheduler = sched;
    return gopt;
}

std::vector<workload::Workload>
buildSuite(const Geometry &g)
{
    std::vector<workload::Workload> suite;
    for (const auto &name : g.programs)
        suite.push_back(workload::specBenchmark(name, g.programLength));
    return suite;
}

/** One opened data dir: the repository and its phase-memo index. */
struct Store
{
    std::unique_ptr<harness::EvalRepository> repo;
    std::unique_ptr<harness::GatherScheduler> sched;
};

Store
openStore(const Geometry &g, const std::filesystem::path &dir,
          unsigned threads)
{
    Store s;
    auto suite = buildSuite(g);
    Span span("repo.open");
    s.repo = std::make_unique<harness::EvalRepository>(
        std::move(suite), dir.string(), threads, 1);
    s.sched = std::make_unique<harness::GatherScheduler>(
        harness::GatherScheduler::indexPathFor(*s.repo),
        harness::GatherScheduler::Options{});
    return s;
}

/** Everything one pass of the pipeline produced. */
struct Fig4Run
{
    std::vector<phase::Phase> phases;
    std::vector<harness::GatheredPhase> gathered;
    space::Configuration baseline;
    std::vector<std::uint64_t> predicted[2];
    std::vector<double> modelEff[2];
    std::vector<std::string> programs;
    std::vector<double> relative[2];
    double geomean[2] = {0.0, 0.0};
    std::size_t folds = 0;
};

const counters::FeatureSet kSets[2] = {counters::FeatureSet::Basic,
                                       counters::FeatureSet::Advanced};

/** LOOCV predictions for @p set, served from the prediction cache in
 *  the data dir when it holds all of them (as Experiment does). */
std::vector<std::uint64_t>
predictions(const harness::EvalRepository &repo,
            const std::vector<harness::GatheredPhase> &gathered,
            counters::FeatureSet set, std::size_t &folds)
{
    const std::string path = repo.dataDir() + "/loocv_" +
                             counters::featureSetName(set) + ".csv";
    std::vector<std::uint64_t> codes(gathered.size(), 0);
    {
        std::ifstream in(path);
        std::size_t count = 0;
        std::string line;
        while (in && std::getline(in, line)) {
            std::istringstream ls(line);
            std::size_t idx = 0;
            std::uint64_t code = 0;
            char comma = 0;
            if (ls >> idx >> comma >> code && idx < codes.size()) {
                codes[idx] = code;
                ++count;
            }
        }
        if (count == codes.size() && count > 0)
            return codes;
    }

    std::vector<ml::PhaseData> data;
    data.reserve(gathered.size());
    std::vector<std::string> programs;
    for (const auto &g : gathered) {
        data.push_back(g.toPhaseData(set));
        if (std::find(programs.begin(), programs.end(),
                      g.phase.workload) == programs.end())
            programs.push_back(g.phase.workload);
    }
    std::vector<ml::CvPrediction> preds;
    {
        Span span(set == counters::FeatureSet::Basic
                      ? "ml.loocv_basic"
                      : "ml.loocv_advanced");
        preds = ml::leaveOneProgramOut(data, ml::TrainerOptions{});
    }
    folds += programs.size();
    for (const auto &p : preds)
        codes[p.phaseIdx] = p.predicted.encode();

    std::ostringstream os;
    for (std::size_t i = 0; i < codes.size(); ++i)
        os << i << ',' << codes[i] << '\n';
    atomicWriteFile(path, os.str());
    return codes;
}

/** The Fig. 4 pipeline on one opened store. */
Fig4Run
pipeline(Store &store, const Geometry &g, std::uint64_t seed,
         Outcome &outcome)
{
    auto &repo = *store.repo;
    Fig4Run r;

    phase::SimPointOptions sp;
    sp.intervalLength = g.intervalLength;
    sp.maxPhases = g.phasesPerProgram;
    {
        Span span("phase.extract");
        for (const auto &name : g.programs) {
            auto ph = phase::extractPhases(repo.workload(name), sp);
            r.phases.insert(r.phases.end(), ph.begin(), ph.end());
        }
    }

    const auto gopt = gatherOptions(g, seed, store.sched.get());
    {
        Span span("gather");
        r.gathered = harness::gatherTrainingData(
            repo, r.phases, g.programLength, g.warmLength, gopt);
    }
    for (const auto &ph : r.gathered) {
        for (const auto &e : ph.evals)
            outcome.op(positiveFinite(e.efficiency),
                       "gathered efficiency on " + ph.spec.key());
        const auto &f = ph.features;
        outcome.op(!f.basic.empty() && !f.advanced.empty() &&
                       std::all_of(f.advanced.begin(),
                                   f.advanced.end(),
                                   [](double v) {
                                       return std::isfinite(v);
                                   }),
                   "profile of " + ph.spec.key());
    }

    const auto pool = harness::sharedConfigPool(gopt);
    {
        Span span("baseline");
        r.baseline = harness::bestStaticConfig(r.gathered, pool);
    }

    for (int s = 0; s < 2; ++s) {
        r.predicted[s] = predictions(repo, r.gathered, kSets[s],
                                     r.folds);
        Span span("repo.evaluate");
        for (std::size_t i = 0; i < r.gathered.size(); ++i) {
            const auto cfg =
                space::Configuration::decode(r.predicted[s][i]);
            outcome.op(cfg.encode() == r.predicted[s][i],
                       "LOOCV prediction code");
            const double eff =
                repo.evaluate(r.gathered[i].spec, cfg, &cycleModel())
                    .efficiency;
            outcome.op(positiveFinite(eff), "model efficiency");
            r.modelEff[s].push_back(eff);
        }
    }
    {
        Span span("repo.flush");
        repo.flush();
    }

    // Per-program phase-weighted geomean of model / baseline
    // efficiency (Experiment::relativeEfficiency).
    for (const auto &name : g.programs) {
        double rel[2] = {0.0, 0.0};
        for (int s = 0; s < 2; ++s) {
            double log_sum = 0.0, weight_sum = 0.0;
            for (std::size_t i = 0; i < r.gathered.size(); ++i) {
                const auto &gp = r.gathered[i];
                if (gp.phase.workload != name)
                    continue;
                const double base =
                    harness::efficiencyOn(gp, r.baseline);
                const double eff = r.modelEff[s][i];
                if (base <= 0.0 || eff <= 0.0)
                    continue;
                const double w =
                    gp.phase.weight > 0.0 ? gp.phase.weight : 1.0;
                log_sum += w * std::log(eff / base);
                weight_sum += w;
            }
            rel[s] = weight_sum > 0.0 ? std::exp(log_sum / weight_sum)
                                      : 0.0;
            outcome.op(positiveFinite(rel[s]),
                       "relative efficiency of " + name);
            r.relative[s].push_back(rel[s]);
        }
        r.programs.push_back(name);
    }
    for (int s = 0; s < 2; ++s) {
        double log_sum = 0.0;
        for (double v : r.relative[s])
            log_sum += std::log(std::max(v, 1e-300));
        r.geomean[s] = std::exp(log_sum / double(r.relative[s].size()));
    }
    return r;
}

/** Digests of a pass's outputs, by name. */
std::vector<std::pair<std::string, std::string>>
outputDigests(Store &store, const Fig4Run &r)
{
    Digest records, loocv, fig4;
    for (const auto &gp : r.gathered) {
        records.add(gp.spec.key());
        for (const auto &[code, rec] :
             store.repo->records(gp.spec, cycleModel().cacheTag())) {
            records.add(code);
            records.add(rec.cycles);
            records.add(rec.instructions);
            records.add(rec.joules);
        }
    }
    for (int s = 0; s < 2; ++s) {
        for (auto code : r.predicted[s])
            loocv.add(code);
    }
    for (std::size_t p = 0; p < r.programs.size(); ++p) {
        fig4.add(r.programs[p]);
        fig4.add(r.relative[0][p]);
        fig4.add(r.relative[1][p]);
    }
    fig4.add(r.geomean[0]);
    fig4.add(r.geomean[1]);
    return {{"records", records.hex()},
            {"loocv", loocv.hex()},
            {"fig4", fig4.hex()}};
}

/** Invariants that hold at every seed. */
void
checkInvariants(const Geometry &g, Store &store, const Fig4Run &r,
                Outcome &outcome)
{
    outcome.check(r.phases.size() >= g.programs.size() &&
                      r.phases.size() <=
                          g.programs.size() * g.phasesPerProgram,
                  "phase count " + std::to_string(r.phases.size()));
    outcome.check(r.gathered.size() == r.phases.size(),
                  "gathered phase count");
    std::size_t records = 0;
    for (const auto &gp : r.gathered) {
        const auto recs =
            store.repo->records(gp.spec, cycleModel().cacheTag());
        records += recs.size();
        for (const auto &[code, rec] : recs)
            outcome.check(positiveFinite(rec.efficiency) &&
                              positiveFinite(rec.cycles) &&
                              positiveFinite(rec.instructions),
                          "stored record on " + gp.spec.key());
    }
    outcome.check(records > 0, "store holds records");
    for (int s = 0; s < 2; ++s)
        outcome.check(positiveFinite(r.geomean[s]), "Fig. 4 geomean");
}

/** Check a pass: frozen digests (first pass) and equality with the
 *  first pass (later ones). */
void
checkPass(const Geometry &g, Store &store, const Fig4Run &r,
          std::vector<std::pair<std::string, std::string>> &first,
          Outcome &outcome)
{
    checkInvariants(g, store, r, outcome);
    const auto d = outputDigests(store, r);
    if (first.empty()) {
        for (const auto &[name, value] : d)
            outcome.digest(name, value);
        first = d;
        std::printf("fig4: %zu phases, baseline %s, geomean basic "
                    "%.4fx advanced %.4fx\n",
                    r.phases.size(), r.baseline.toString().c_str(),
                    r.geomean[0], r.geomean[1]);
    } else {
        outcome.check(d == first, "repetition outputs differ");
    }
}

/** Replays extractPhases through Workload::generate, Bbv::ofTrace
 *  and kmeans, checking that each phase's signature is the replayed
 *  BBV of its interval and that the replayed clusters give the same
 *  phase weights. */
void
replayExtraction(const Geometry &g, Store &store,
                 const std::vector<phase::Phase> &phases, Sheet &sheet,
                 Outcome &outcome, double &gen_s, double &uops)
{
    double bbv_s = 0.0, kmeans_s = 0.0;
    bool same = true;
    for (const auto &name : g.programs) {
        const auto &wl = store.repo->workload(name);
        const std::uint64_t n = wl.totalInstructions() / g.intervalLength;
        std::vector<std::vector<double>> points;
        for (std::uint64_t i = 0; i < n; ++i) {
            auto t0 = Clock::now();
            const auto trace =
                wl.generate(i * g.intervalLength, g.intervalLength);
            gen_s += secondsSince(t0);
            uops += double(trace.size());
            t0 = Clock::now();
            points.push_back(phase::Bbv::ofTrace(trace).values());
            bbv_s += secondsSince(t0);
        }
        const auto t0 = Clock::now();
        Rng rng(phase::SimPointOptions{}.seed ^
                std::hash<std::string>{}(name));
        const auto km = phase::kmeans(points, g.phasesPerProgram, rng);
        kmeans_s += secondsSince(t0);

        std::vector<double> want, got;
        for (auto size : km.clusterSizes) {
            if (size > 0)
                want.push_back(double(size) / double(points.size()));
        }
        for (const auto &p : phases) {
            if (p.workload != name)
                continue;
            got.push_back(p.weight);
            same = same && p.startInst / g.intervalLength < n &&
                   points[p.startInst / g.intervalLength] ==
                       p.signature.values();
        }
        std::sort(want.begin(), want.end());
        std::sort(got.begin(), got.end());
        same = same && want == got;
    }
    outcome.check(same, "replayed extraction equals extractPhases");
    sheet.set("phase.bbv_s", bbv_s);
    sheet.set("phase.kmeans_s", kmeans_s);
    sheet.set("phase.phases", double(phases.size()));
}

/**
 * Replays every record the pass simulated through the cycle model's
 * session (warm / run / metricsFor), checking each equals the stored
 * record bit for bit.
 */
void
replayEvaluations(Store &store,
                  const std::vector<harness::GatheredPhase> &gathered,
                  unsigned threads, Sheet &sheet, Outcome &outcome,
                  double &gen_s, double &uops)
{
    struct Job
    {
        const workload::Workload *wl;
        const std::vector<isa::MicroOp> *warm;
        const std::vector<isa::MicroOp> *detail;
        std::uint64_t code;
        harness::EvalRecord want;
        double warm_s = 0, run_s = 0, metrics_s = 0;
        double cycles = 0, uops = 0;
        bool equal = false;
    };
    std::vector<std::vector<isa::MicroOp>> traces;
    traces.reserve(2 * gathered.size());
    std::vector<Job> jobs;
    for (const auto &gp : gathered) {
        const auto &spec = gp.spec;
        const auto &wl = store.repo->workload(spec.workload);
        const std::uint64_t warm_start =
            spec.startInst >= spec.warmLength
                ? spec.startInst - spec.warmLength
                : 0;
        auto t0 = Clock::now();
        traces.push_back(wl.generate(warm_start, spec.warmLength));
        traces.push_back(wl.generate(spec.startInst, spec.detailLength));
        gen_s += secondsSince(t0);
        uops += double(spec.warmLength + spec.detailLength);
        for (const auto &[code, rec] :
             store.repo->records(spec, cycleModel().cacheTag())) {
            Job j{};
            j.wl = &wl;
            j.warm = &traces[traces.size() - 2];
            j.detail = &traces.back();
            j.code = code;
            j.want = rec;
            jobs.push_back(j);
        }
    }

    harness::ThreadPool pool(threads);
    pool.parallelFor(jobs.size(), [&](std::size_t i) {
        Job &j = jobs[i];
        workload::WrongPathGenerator wp(j.wl->averageParams(),
                                        j.wl->seed() ^ kWrongPathSalt);
        const auto cc = uarch::CoreConfig::fromConfiguration(
            space::Configuration::decode(j.code));
        const auto &model = cycleModel();
        const auto session = model.makeSession(cc, wp);
        auto t0 = Clock::now();
        session->warm(*j.warm);
        j.warm_s = secondsSince(t0);
        t0 = Clock::now();
        const auto res = model.run(*session, *j.detail);
        j.run_s = secondsSince(t0);
        t0 = Clock::now();
        const auto m = session->metricsFor(res);
        j.metrics_s = secondsSince(t0);
        j.cycles = double(res.cycles);
        j.uops = double(res.events.committedOps);
        j.equal = m.cycles == j.want.cycles &&
                  m.instructions == j.want.instructions &&
                  m.joules == j.want.joules &&
                  m.efficiency == j.want.efficiency;
    });

    double warm_s = 0, run_s = 0, metrics_s = 0, cycles = 0, committed = 0;
    std::size_t unequal = 0;
    for (const auto &j : jobs) {
        warm_s += j.warm_s;
        run_s += j.run_s;
        metrics_s += j.metrics_s;
        cycles += j.cycles;
        committed += j.uops;
        unequal += j.equal ? 0 : 1;
    }
    outcome.check(unequal == 0,
                  std::to_string(unequal) +
                      " replayed evaluations differ from the store");
    sheet.set("uarch.warm_s", warm_s);
    sheet.set("uarch.run_s", run_s);
    sheet.set("uarch.runs", double(jobs.size()));
    sheet.set("uarch.committed_uops", committed);
    sheet.set("uarch.cycles", cycles);
    sheet.set("uarch.uops_per_s", ratio(committed, run_s));
    sheet.set("power.metrics_s", metrics_s);
    sheet.set("power.calls", double(jobs.size()));
}

/** Builds the fig4-warm seed: reruns the pipeline on one data dir
 *  until a pass simulates nothing. */
std::filesystem::path
settledSeed(const Options &opt, const Geometry &g, Outcome &outcome,
            Sheet &sheet)
{
    const auto dir = freshDir(opt, "seed");
    const auto t0 = Clock::now();
    std::size_t passes = 0;
    for (;;) {
        Store store = openStore(g, dir, opt.threads);
        Outcome scratch;
        pipeline(store, g, opt.seed, scratch);
        ++passes;
        outcome.check(scratch.failed == 0 && scratch.correct,
                      "seed-building pass failed");
        const auto simulated = store.repo->simulationsRun();
        std::printf("fig4-warm seed: pass %zu simulated %llu\n", passes,
                    static_cast<unsigned long long>(simulated));
        if (simulated == 0)
            break;
        if (passes == 8) {
            outcome.check(false, "warm seed did not settle");
            break;
        }
    }
    sheet.set("warm.seed_s", secondsSince(t0));
    sheet.set("warm.seed_passes", double(passes));
    return dir;
}

} // namespace

void
runFig4(const Options &opt, bool warm, Sheet &sheet, Outcome &outcome)
{
    const Geometry g;
    std::filesystem::path seed_dir;
    if (warm)
        seed_dir = settledSeed(opt, g, outcome, sheet);

    std::vector<double> setups, walls;
    std::vector<std::pair<std::string, std::string>> first;
    std::size_t reps = 0;

    // One repetition; the traced one also collects layer metrics.
    auto rep = [&](Pass pass) -> double {
        layerClock().clear();
        // The fresh dir and the copy of the settled store isolate the
        // repetitions; set-up is what a user of that dir pays.
        const auto dir = freshDir(opt, "rep" + std::to_string(reps));
        if (warm)
            std::filesystem::copy(
                seed_dir, dir,
                std::filesystem::copy_options::recursive);
        const auto t0 = Clock::now();
        Store store = openStore(g, dir, opt.threads);
        const double setup = secondsSince(t0);

        const auto t1 = Clock::now();
        const double c1 = processCpuSeconds();
        Fig4Run r = pipeline(store, g, opt.seed, outcome);
        const double wall = secondsSince(t1);
        const double cpu = processCpuSeconds() - c1;

        if (warm) {
            outcome.check(store.repo->simulationsRun() == 0,
                          "warm pass simulated " +
                              std::to_string(
                                  store.repo->simulationsRun()));
            outcome.check(store.sched->stats().hits >= r.phases.size(),
                          "warm memo hits below phase count");
        }
        checkPass(g, store, r, first, outcome);
        const LayerClock &lc = layerClock();
        std::printf("rep %zu (%s): setup %.6f s, wall %.4f s, cpu %.4f s "
                    "(extract %.3f, gather %.3f, loocv %.3f, evaluate "
                    "%.3f)\n",
                    reps, passName(pass), setup, wall, cpu,
                    lc.seconds("phase.extract"), lc.seconds("gather"),
                    lc.seconds("ml.loocv_basic") +
                        lc.seconds("ml.loocv_advanced"),
                    lc.seconds("repo.evaluate"));
        ++reps;
        if (pass == Pass::Timed) {
            setups.push_back(setup);
            walls.push_back(wall);
        }
        if (pass != Pass::Traced) {
            std::filesystem::remove_all(dir);
            return setup + wall;
        }

        // Layer metrics of the traced pass, then the replays that
        // split its composite calls.
        const auto snap = obs::Registry::global().snapshot();
        const auto stats = store.repo->stats();
        const auto memo = store.sched->stats();
        double gen_s = 0.0, uops = 0.0;
        replayExtraction(g, store, r.phases, sheet, outcome, gen_s,
                         uops);
        if (store.repo->simulationsRun() > 0)
            replayEvaluations(store, r.gathered, opt.threads, sheet,
                              outcome, gen_s, uops);
        sheet.set("workload.generate_s", gen_s);
        sheet.set("workload.uops_generated", uops);
        sheet.set("workload.generate_uops_per_s", ratio(uops, gen_s));
        const auto profile = spanTotals(snap, "repo/profile");
        sheet.set("counters.profile_s", profile.seconds);
        sheet.set("counters.profiles", double(profile.count));
        sheet.set("repo.open_s", lc.seconds("repo.open"));
        sheet.set("repo.records_loaded", double(stats.loaded));
        sheet.set("repo.hit_ratio",
                  ratio(double(stats.hits),
                        double(stats.hits + stats.misses)));
        sheet.set("repo.simulated",
                  double(store.repo->simulationsRun()));
        sheet.set("repo.flush_s", lc.seconds("repo.flush"));
        sheet.set("repo.records_flushed", double(stats.flushed));
        const auto phase_span = spanTotals(snap, "gather/phase");
        sheet.set("gather.s", lc.seconds("gather"));
        sheet.set("gather.phase_p50_s", phase_span.p50);
        sheet.set("gather.phase_p95_s", phase_span.p95);
        sheet.set("gather.memo_hit_ratio",
                  ratio(double(memo.hits),
                        double(memo.hits + memo.misses +
                               memo.escalations)));
        sheet.set("baseline.s", lc.seconds("baseline"));
        sheet.set("ml.loocv_basic_s", lc.seconds("ml.loocv_basic"));
        sheet.set("ml.loocv_advanced_s",
                  lc.seconds("ml.loocv_advanced"));
        sheet.set("ml.folds", double(r.folds));
        setCommonLayerMetrics(snap, wall, median(walls), sheet);
        std::filesystem::remove_all(dir);
        return setup + wall;
    };

    schedule(opt, 3, rep);
    if (opt.trace)
        return;
    sheet.set("wall_s", median(walls));
    sheet.set("setup_s", median(setups));
}

} // namespace perfbench
