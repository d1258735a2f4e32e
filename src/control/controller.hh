/**
 * @file
 * The runtime adaptivity controller — the complete loop of Fig. 2.
 *
 * Stage 1: an online BBV detector watches for phase changes.
 * Stage 2: new phases run one interval on the profiling configuration
 *          while the counter bank gathers Table II counters.
 * Stage 3: the predictive model maps the counters to a configuration;
 *          the core reconfigures (paying the Table V overheads, with
 *          caches flushed) and execution continues.
 *
 * Recurring phases reuse their stored prediction, so reconfiguration
 * and profiling happen only on genuinely new behaviour.
 */

#ifndef ADAPTSIM_CONTROL_CONTROLLER_HH
#define ADAPTSIM_CONTROL_CONTROLLER_HH

#include <memory>
#include <unordered_map>

#include "control/core_policy.hh"
#include "control/reconfig_cost.hh"
#include "counters/feature_vector.hh"
#include "ml/trainer.hh"
#include "sim/perf_model.hh"
#include "workload/trace_cache.hh"
#include "workload/workload.hh"

namespace adaptsim::control
{

/** Controller knobs. */
struct ControllerOptions
{
    std::uint64_t intervalLength = 10000;
    counters::FeatureSet featureSet =
        counters::FeatureSet::Advanced;
    double detectorThreshold = 1.0;
    space::Configuration initialConfig;   ///< config before adapting

    /** Optional shared interval-trace cache: replayed runs of the
     *  same workload (static vs adaptive comparisons) then generate
     *  each interval once instead of once per run. */
    workload::TraceCache *traceCache = nullptr;
};

/** Whole-run outcome of an adaptive (or static) execution. */
struct RunStats
{
    std::uint64_t intervals = 0;
    std::uint64_t instructions = 0;
    std::uint64_t phaseChanges = 0;
    std::uint64_t profilingIntervals = 0;
    std::uint64_t reconfigurations = 0;
    Cycles reconfigCycles = 0;

    double seconds = 0.0;
    double joules = 0.0;

    double watts() const
    {
        return seconds > 0.0 ? joules / seconds : 0.0;
    }
    double ips() const
    {
        return seconds > 0.0 ? double(instructions) / seconds : 0.0;
    }
    double efficiency() const;   ///< ips³/W
};

/** The adaptive processor controller. */
class AdaptiveController
{
  public:
    /**
     * @param wl program to execute.
     * @param model trained predictive model (must match featureSet).
     * @param options controller knobs.
     */
    AdaptiveController(const workload::Workload &wl,
                       const ml::AdaptivityModel &model,
                       const ControllerOptions &options = {});

    /** Execute @p max_instructions µops adaptively. */
    RunStats run(std::uint64_t max_instructions);

    /** Predictions made so far, by detector phase id. */
    const std::unordered_map<std::size_t, space::Configuration> &
    phasePredictions() const
    {
        return policy_.predictions();
    }

  private:
    /** Simulate one interval on @p session, accumulating stats. */
    void runInterval(sim::CoreSession &session,
                     std::span<const isa::MicroOp> trace,
                     uarch::SimObserver *observer, RunStats &stats);

    const workload::Workload &wl_;
    const ml::AdaptivityModel &model_;
    ControllerOptions opt_;
    const sim::PerfModel &backend_;

    workload::WrongPathGenerator wrongPath_;
    CorePolicy policy_;
};

/**
 * Reference point: execute @p max_instructions of @p wl on a fixed
 * @p config (caches and predictor stay warm across intervals).
 */
RunStats runStatic(const workload::Workload &wl,
                   const space::Configuration &config,
                   std::uint64_t max_instructions,
                   std::uint64_t interval_length = 10000,
                   workload::TraceCache *trace_cache = nullptr);

} // namespace adaptsim::control

#endif // ADAPTSIM_CONTROL_CONTROLLER_HH
