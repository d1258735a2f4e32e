#include "control/controller.hh"

#include "obs/obs.hh"
#include "power/metrics.hh"

namespace adaptsim::control
{

double
RunStats::efficiency() const
{
    return power::efficiencyOf(ips(), watts());
}

AdaptiveController::AdaptiveController(const workload::Workload &wl,
                                       const ml::AdaptivityModel &model,
                                       const ControllerOptions &options)
    : wl_(wl), model_(model), opt_(options),
      backend_(sim::perfModel("cycle")),
      wrongPath_(wl.averageParams(), wl.seed() ^ 0x771ULL),
      policy_(model, options.featureSet, options.detectorThreshold)
{
}

void
AdaptiveController::runInterval(sim::CoreSession &session,
                                std::span<const isa::MicroOp> trace,
                                uarch::SimObserver *observer,
                                RunStats &stats)
{
    const auto result = backend_.run(session, trace, observer);
    const auto m = session.metricsFor(result);
    stats.seconds += m.seconds;
    stats.joules += m.joules;
    stats.instructions += result.events.committedOps;
    ++stats.intervals;
}

RunStats
AdaptiveController::run(std::uint64_t max_instructions)
{
    RunStats stats;
    const std::uint64_t interval = opt_.intervalLength;
    const std::uint64_t num_intervals = max_instructions / interval;

    space::Configuration current = opt_.initialConfig;
    auto current_cc = uarch::CoreConfig::fromConfiguration(current);
    auto core = backend_.makeSession(current_cc, wrongPath_);

    const auto profiling = space::Configuration::profiling();
    const auto profiling_cc =
        uarch::CoreConfig::fromConfiguration(profiling);
    const auto profiling_core =
        backend_.makeSession(profiling_cc, wrongPath_);

    // Interval traces come from the shared cache when one is
    // configured (replayed comparison runs regenerate nothing);
    // otherwise one sequential stream walks the program.
    workload::TracePtr trace_hold;
    std::vector<isa::MicroOp> trace_local;
    workload::Workload::Stream stream(wl_, 0);
    for (std::uint64_t i = 0; i < num_intervals; ++i) {
        std::span<const isa::MicroOp> trace;
        if (opt_.traceCache) {
            trace_hold =
                opt_.traceCache->get(wl_, i * interval, interval);
            trace = *trace_hold;
        } else {
            trace_local = stream.take(interval);
            trace = trace_local;
        }

        // Stage 1: phase detection on the interval's BBV.
        const auto obs = policy_.observe(trace);

        space::Configuration target = current;
        if (obs.newPhase) {
            // Stage 2: profile the new phase on the profiling
            // configuration, gathering the Table II counters.
            counters::CounterBank bank(profiling_cc);
            uarch::SimResult prof;
            {
                OBS_SPAN("control/profile");
                prof = backend_.run(*profiling_core, trace, &bank);
            }
            bank.finalise(prof.events);
            const auto m = power::computeMetrics(profiling_cc,
                                                 prof.events);
            stats.seconds += m.seconds;
            stats.joules += m.joules;
            stats.instructions += prof.events.committedOps;
            ++stats.intervals;
            ++stats.profilingIntervals;

            // Stage 3: predict and remember.
            target = policy_.predictFrom(obs.phaseId, bank);
        } else if (const auto *p = policy_.prediction(obs.phaseId)) {
            target = *p;
        }
        if (obs.phaseChanged)
            ++stats.phaseChanges;

        if (obs.newPhase) {
            // The profiled interval already executed; skip to the
            // next interval on the (possibly new) configuration.
        }

        bool just_reconfigured = false;
        if (target != current) {
            const ReconfigCostModel cost_model(current_cc);
            const Cycles penalty =
                cost_model.transitionCycles(current, target);
            stats.reconfigCycles += penalty;
            stats.seconds += double(penalty) *
                             current_cc.clockPeriodSec;
            ++stats.reconfigurations;
            OBS_ONLY(OBS_COUNTER("control/reconfigurations").add(1);)
            just_reconfigured = true;

            current = target;
            current_cc =
                uarch::CoreConfig::fromConfiguration(current);
            // Reconfiguration flushes the caches: a fresh session
            // models the post-flush cold state.
            core = backend_.makeSession(current_cc, wrongPath_);
        }

        if (obs.newPhase)
            continue;   // this interval ran on the profiling core

        const double joules_before = stats.joules;
        runInterval(*core, trace, nullptr, stats);
        if (just_reconfigured) {
            // ~3% energy overhead on the reconfiguring interval
            // (powering transitions, flush traffic) — Sec. VIII.
            stats.joules +=
                (stats.joules - joules_before) *
                ReconfigCostModel::intervalEnergyOverhead;
        }
    }
    return stats;
}

RunStats
runStatic(const workload::Workload &wl,
          const space::Configuration &config,
          std::uint64_t max_instructions,
          std::uint64_t interval_length,
          workload::TraceCache *trace_cache)
{
    RunStats stats;
    const sim::PerfModel &model = sim::perfModel("cycle");
    workload::WrongPathGenerator wrong_path(wl.averageParams(),
                                            wl.seed() ^ 0x57a71cULL);
    const auto cc = uarch::CoreConfig::fromConfiguration(config);
    const auto core = model.makeSession(cc, wrong_path);

    const std::uint64_t num_intervals =
        max_instructions / interval_length;
    workload::TracePtr trace_hold;
    std::vector<isa::MicroOp> trace_local;
    workload::Workload::Stream stream(wl, 0);
    for (std::uint64_t i = 0; i < num_intervals; ++i) {
        std::span<const isa::MicroOp> trace;
        if (trace_cache) {
            trace_hold = trace_cache->get(
                wl, i * interval_length, interval_length);
            trace = *trace_hold;
        } else {
            trace_local = stream.take(interval_length);
            trace = trace_local;
        }
        const auto result = model.run(*core, trace);
        const auto m = core->metricsFor(result);
        stats.seconds += m.seconds;
        stats.joules += m.joules;
        stats.instructions += result.events.committedOps;
        ++stats.intervals;
    }
    return stats;
}

} // namespace adaptsim::control
