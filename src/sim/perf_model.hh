/**
 * @file
 * The pluggable performance-model seam.
 *
 * Every layer that needs "simulate this trace on this configuration"
 * — the evaluation repository, the runtime controller, the benches —
 * goes through the abstract PerfModel interface instead of
 * constructing the cycle-level uarch::Core directly.  Backends are
 * looked up by name in a process-wide registry; ADAPTSIM_BACKEND
 * selects the default (see common/env), and every entry point takes
 * a per-call override.
 *
 * Two backends ship built in:
 *
 *   "cycle"     CycleLevelModel — the detailed out-of-order pipeline
 *               (uarch::Core), bit-identical to calling it directly.
 *   "interval"  IntervalModel — a Karkhanis/Eeckhout-style interval
 *               analysis that replays the trace through the *real*
 *               cache and branch-predictor models in one linear pass
 *               and prices the penalty events analytically.  No
 *               per-cycle loop, ≥10× faster, bounded IPC error.
 *
 * Results of different fidelities must never mix: each backend
 * carries a cacheTag() that the repository folds into its in-memory
 * keys and persists in every on-disk record (DESIGN.md §11).
 */

#ifndef ADAPTSIM_SIM_PERF_MODEL_HH
#define ADAPTSIM_SIM_PERF_MODEL_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "power/metrics.hh"
#include "space/configuration.hh"
#include "uarch/core_config.hh"
#include "uarch/events.hh"
#include "uarch/pipeline.hh"
#include "workload/wrong_path.hh"

namespace adaptsim::sim
{

/** How faithful a backend's timing is. */
enum class Fidelity
{
    CycleLevel,   ///< detailed cycle-by-cycle pipeline simulation
    Analytical,   ///< event-driven analytical estimate
    Learned       ///< statistical surrogate fit to cycle-level data
};

/** Human-readable fidelity name. */
const char *fidelityName(Fidelity f);

class PerfModel;
class ChipSession;

/**
 * One configured simulated core owned by a backend: caches and
 * branch predictor persist across warm() and run() calls exactly as
 * uarch::Core's do, so multi-interval executions (the controller)
 * keep state warm between intervals.
 */
class CoreSession
{
  public:
    virtual ~CoreSession() = default;

    /** Functional warm-up of caches/predictor (no timing). */
    virtual void warm(std::span<const isa::MicroOp> trace) = 0;

    /**
     * Timing simulation of @p trace.  @p observer is the profiling
     * counter sink; backends whose PerfModel::supportsObservers() is
     * false ignore it.
     */
    virtual uarch::SimResult
    run(std::span<const isa::MicroOp> trace,
        uarch::SimObserver *observer = nullptr) = 0;

    /** The derived configuration this session was built from. */
    virtual const uarch::CoreConfig &config() const = 0;

    /**
     * Turn a run() result into full power/performance metrics.  The
     * default derives everything from the synthesised event counts;
     * backends that predict time/energy directly (the learned
     * surrogate) override this so their energy estimate is not
     * laundered through per-event energy accounting of events they
     * never modelled.
     */
    virtual power::Metrics metricsFor(const uarch::SimResult &result)
    {
        return power::computeMetrics(config(), result.events);
    }

    /**
     * The backend that actually produced the most recent run()
     * result, for policy backends that delegate (the cascade
     * escalating to cycle-level).  nullptr means "the owning
     * backend itself" — the common case.
     */
    virtual const PerfModel *lastProducer() const { return nullptr; }

    /**
     * Confidence of the most recent run() result, in IPC units
     * (estimated absolute IPC error).  Exact backends report 0.
     */
    virtual double lastUncertainty() const { return 0.0; }
};

/** Abstract performance-model backend (stateless; sessions carry
 *  all mutable state, so one registered instance serves all
 *  threads concurrently). */
class PerfModel
{
  public:
    virtual ~PerfModel() = default;

    /** Registry key, e.g. "cycle" or "interval". */
    virtual const char *name() const = 0;

    virtual Fidelity fidelity() const = 0;

    /**
     * Stable tag mixed into eval-cache keys and persisted in .evc
     * records so results of different fidelities never collide.
     * Tag 0 is reserved for the cycle-level reference model (every
     * record in the committed data/ store carries it).
     */
    virtual std::uint64_t cacheTag() const = 0;

    /** Whether run() drives SimObserver callbacks (per-cycle
     *  samples, cache/branch probes) — required for profiling. */
    virtual bool supportsObservers() const = 0;

    /**
     * Cache tags whose records may answer a query to this backend,
     * probed in order.  The default is just cacheTag(); a policy
     * backend widens this (the cascade accepts cycle-level ground
     * truth — strictly better — before its own cheap records).
     */
    virtual std::vector<std::uint64_t> cacheLookupTags() const
    {
        return {cacheTag()};
    }

    /**
     * The exact backend this one escalates to, or nullptr when
     * results are final.  Non-null enables the repository's batch
     * near-frontier refinement (see selectForRefinement).
     */
    virtual const PerfModel *groundTruthModel() const
    {
        return nullptr;
    }

    /**
     * Pick indices of a finished batch (per-point efficiency in
     * @p efficiency) worth re-evaluating at ground truth — the
     * near-frontier points an adaptivity search will act on.
     * @p budget caps how many ground-truth runs the caller is
     * willing to pay for (kUnlimitedRefinement when it has no
     * opinion; 0 when the batch is already trusted, e.g. a memoised
     * gather).  Only consulted when
     * groundTruthModel() is non-null; default none.
     */
    static constexpr std::size_t kUnlimitedRefinement =
        ~std::size_t(0);

    virtual void
    selectForRefinement(const std::vector<double> &efficiency,
                        std::size_t budget,
                        std::vector<std::size_t> &out) const
    {
        (void)efficiency;
        (void)budget;
        (void)out;
    }

    /** Create a fresh core session for @p cfg. */
    virtual std::unique_ptr<CoreSession>
    makeSession(const uarch::CoreConfig &cfg,
                workload::WrongPathGenerator &wrong_path) const = 0;

    /**
     * Create a fresh multi-core session for @p cfg (one wrong-path
     * source per core).  The default is the backend-agnostic proxy
     * session (sim/chip_session.hh), which measures interference
     * functionally and folds it into per-core effective memory
     * latency; the cycle backend overrides this with the detailed
     * uarch::Chip.  A one-core chip delegates to makeSession() and
     * stays bit-identical to the single-core seam.
     */
    virtual std::unique_ptr<ChipSession>
    makeChipSession(const uarch::ChipConfig &cfg,
                    const std::vector<workload::WrongPathGenerator *>
                        &wrong_paths) const;

    /**
     * Instrumented timing run: bumps the "backend/<name>/evals"
     * counter and records the wall time into the
     * "sim/run/<name>.seconds" span histogram, then delegates to
     * @p session.  All seam call sites use this rather than calling
     * the session directly so per-backend telemetry is complete.
     */
    uarch::SimResult run(CoreSession &session,
                         std::span<const isa::MicroOp> trace,
                         uarch::SimObserver *observer = nullptr) const;

    /**
     * One-shot convenience: session + optional warm + instrumented
     * run + power metrics (the `run(trace, config) -> EvalMetrics`
     * shape of the seam).  @p warm_trace may be empty.
     */
    power::Metrics
    evaluate(const space::Configuration &config,
             workload::WrongPathGenerator &wrong_path,
             std::span<const isa::MicroOp> warm_trace,
             std::span<const isa::MicroOp> detail_trace) const;
};

/**
 * Register a backend under model->name().  Registering a name twice
 * is fatal (built-ins "cycle" and "interval" are pre-registered).
 * Thread-safe; handles returned by perfModel() stay valid for the
 * process lifetime.
 */
void registerPerfModel(std::unique_ptr<PerfModel> model);

/** Backend by name; fatal on unknown names (message lists the
 *  registered ones). */
const PerfModel &perfModel(const std::string &name);

/** Backend by name, or nullptr when unknown (never creates). */
const PerfModel *findPerfModel(const std::string &name);

/** The ADAPTSIM_BACKEND-selected default backend. */
const PerfModel &defaultPerfModel();

/** Sorted names of all registered backends. */
std::vector<std::string> perfModelNames();

} // namespace adaptsim::sim

#endif // ADAPTSIM_SIM_PERF_MODEL_HH
