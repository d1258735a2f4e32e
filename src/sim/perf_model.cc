#include "sim/perf_model.hh"

#include "common/logging.hh"
#include "obs/obs.hh"

namespace adaptsim::sim
{

const PerfModel &
perfModel(const std::string &name)
{
    static const PerfModel cycle;
    if (name != cycle.name())
        fatal("unknown perf model \"", name, "\" (known: cycle)");
    return cycle;
}

uarch::SimResult
PerfModel::run(CoreSession &session,
               std::span<const isa::MicroOp> trace,
               uarch::SimObserver *observer) const
{
    OBS_ONLY(OBS_COUNTER("backend/cycle/evals").add(1);)
    OBS_SPAN("sim/run/cycle");
    return session.run(trace, observer);
}

power::Metrics
PerfModel::evaluate(const space::Configuration &config,
                    workload::WrongPathGenerator &wrong_path,
                    std::span<const isa::MicroOp> warm_trace,
                    std::span<const isa::MicroOp> detail_trace) const
{
    const auto cc = uarch::CoreConfig::fromConfiguration(config);
    CoreSession session(cc, wrong_path);
    if (!warm_trace.empty())
        session.warm(warm_trace);
    const auto result = run(session, detail_trace);
    return session.metricsFor(result);
}

} // namespace adaptsim::sim
