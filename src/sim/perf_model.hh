/**
 * @file
 * The timing model.
 *
 * Every layer that needs "simulate this trace on this configuration"
 * — the evaluation repository, the runtime controller, the benches —
 * goes through PerfModel instead of constructing uarch::Core
 * directly, so per-run telemetry is complete.  There is one model,
 * the cycle-level out-of-order pipeline, looked up as
 * perfModel("cycle").  A CoreSession is exactly one uarch::Core —
 * same construction, same warm(), same run() — so results through it
 * are bit-identical to calling the core directly (the golden
 * pipeline matrix holds through both paths).
 *
 * The model's cacheTag() is folded into the repository's in-memory
 * keys and persisted in every on-disk record, and a query is
 * answered only by records under that tag, so records a retired
 * model left in a store load but never answer (DESIGN.md §11).
 */

#ifndef ADAPTSIM_SIM_PERF_MODEL_HH
#define ADAPTSIM_SIM_PERF_MODEL_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "power/metrics.hh"
#include "space/configuration.hh"
#include "uarch/core.hh"
#include "uarch/core_config.hh"
#include "uarch/events.hh"
#include "uarch/pipeline.hh"
#include "workload/wrong_path.hh"

namespace adaptsim::sim
{

class ChipSession;

/**
 * One configured simulated core: caches and branch predictor
 * persist across warm() and run() calls exactly as uarch::Core's do,
 * so multi-interval executions (the controller) keep state warm
 * between intervals.
 */
class CoreSession
{
  public:
    CoreSession(const uarch::CoreConfig &cfg,
                workload::WrongPathGenerator &wrong_path)
        : core_(cfg, wrong_path)
    {
    }

    /** Functional warm-up of caches/predictor (no timing). */
    void warm(std::span<const isa::MicroOp> trace) { core_.warm(trace); }

    /** Timing simulation of @p trace; @p observer is the profiling
     *  counter sink. */
    uarch::SimResult
    run(std::span<const isa::MicroOp> trace,
        uarch::SimObserver *observer = nullptr)
    {
        return core_.run(trace, observer);
    }

    /** The derived configuration this session was built from. */
    const uarch::CoreConfig &config() const { return core_.config(); }

    /** Full power/performance metrics of a run() result, derived
     *  from its event counts. */
    power::Metrics metricsFor(const uarch::SimResult &result) const
    {
        return power::computeMetrics(config(), result.events);
    }

  private:
    uarch::Core core_;
};

/** The cycle-level timing model (stateless; sessions carry all
 *  mutable state, so one instance serves all threads
 *  concurrently). */
class PerfModel
{
  public:
    /** Tag of every record this model writes.  0 since the first
     *  store: every record in the committed data/ store carries it. */
    static constexpr std::uint64_t kCacheTag = 0;

    const char *name() const { return "cycle"; }

    /** Mixed into eval-cache keys and persisted in .evc records. */
    std::uint64_t cacheTag() const { return kCacheTag; }

    /** Create a fresh core session for @p cfg. */
    std::unique_ptr<CoreSession>
    makeSession(const uarch::CoreConfig &cfg,
                workload::WrongPathGenerator &wrong_path) const
    {
        return std::make_unique<CoreSession>(cfg, wrong_path);
    }

    /** Create a fresh multi-core session for @p cfg (one wrong-path
     *  source per core); see sim/chip_session.hh. */
    std::unique_ptr<ChipSession>
    makeChipSession(const uarch::ChipConfig &cfg,
                    const std::vector<workload::WrongPathGenerator *>
                        &wrong_paths) const;

    /**
     * Instrumented timing run: bumps the "backend/cycle/evals"
     * counter and records the wall time into the
     * "sim/run/cycle.seconds" span histogram, then delegates to
     * @p session.  All call sites use this rather than calling the
     * session directly so the run telemetry is complete.
     */
    uarch::SimResult run(CoreSession &session,
                         std::span<const isa::MicroOp> trace,
                         uarch::SimObserver *observer = nullptr) const;

    /**
     * One-shot convenience: session + optional warm + instrumented
     * run + power metrics.  @p warm_trace may be empty.
     */
    power::Metrics
    evaluate(const space::Configuration &config,
             workload::WrongPathGenerator &wrong_path,
             std::span<const isa::MicroOp> warm_trace,
             std::span<const isa::MicroOp> detail_trace) const;
};

/** The model by name: "cycle" is the only one, and any other name
 *  is fatal. */
const PerfModel &perfModel(const std::string &name);

} // namespace adaptsim::sim

#endif // ADAPTSIM_SIM_PERF_MODEL_HH
