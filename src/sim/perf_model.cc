#include "sim/perf_model.hh"

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/obs.hh"
#include "sim/cycle_level_model.hh"
#include "sim/interval_model.hh"

namespace adaptsim::sim
{

namespace
{

#if ADAPTSIM_OBS_ENABLED
/** One backend's run telemetry: the "backend/<name>/evals" counter
 *  and the "sim/run/<name>" span histogram, resolved once. */
struct RunTelemetry
{
    explicit RunTelemetry(const PerfModel &model)
        : spanName(std::string("sim/run/") + model.name()),
          evals(obs::Registry::global().counter(
              std::string("backend/") + model.name() + "/evals")),
          hist(obs::spanHistogram(spanName.c_str()))
    {
    }

    const std::string spanName;
    obs::Counter &evals;
    obs::Histogram &hist;
};
#endif

/** The two backends and their telemetry, built on first use. */
struct Backends
{
    CycleLevelModel cycle;
    IntervalModel interval;
#if ADAPTSIM_OBS_ENABLED
    RunTelemetry cycleRuns{cycle};
    RunTelemetry intervalRuns{interval};
#endif
};

const Backends &
backends()
{
    static const Backends b;
    return b;
}

} // namespace

const PerfModel &
perfModel(const std::string &name)
{
    const Backends &b = backends();
    if (name == b.cycle.name())
        return b.cycle;
    if (name == b.interval.name())
        return b.interval;
    fatal("unknown perf-model backend \"", name,
          "\" (known: cycle, interval); check ADAPTSIM_BACKEND");
}

const PerfModel &
defaultPerfModel()
{
    return perfModel(backendName());
}

uarch::SimResult
PerfModel::run(CoreSession &session,
               std::span<const isa::MicroOp> trace,
               uarch::SimObserver *observer) const
{
#if ADAPTSIM_OBS_ENABLED
    const Backends &b = backends();
    const RunTelemetry &t = cacheTag() == CycleLevelModel::kCacheTag
                                ? b.cycleRuns
                                : b.intervalRuns;
    t.evals.add(1);
    obs::ScopedSpan span(t.spanName.c_str(), t.hist);
#endif
    return session.run(trace, observer);
}

power::Metrics
PerfModel::evaluate(const space::Configuration &config,
                    workload::WrongPathGenerator &wrong_path,
                    std::span<const isa::MicroOp> warm_trace,
                    std::span<const isa::MicroOp> detail_trace) const
{
    const auto cc = uarch::CoreConfig::fromConfiguration(config);
    const auto session = makeSession(cc, wrong_path);
    if (!warm_trace.empty())
        session->warm(warm_trace);
    const auto result = run(*session, detail_trace);
    return session->metricsFor(result);
}

} // namespace adaptsim::sim
