/**
 * @file
 * Per-core predictive adaptivity control on a multi-core chip.
 *
 * One CorePolicy instance per core runs the Fig. 2 loop against that
 * core's own counters while all cores co-execute on a shared-LLC
 * chip (sim::ChipSession).  Profiling intervals run on a persistent
 * per-core *solo* session at the profiling configuration — the
 * predictive model was trained on interference-free profiles, so
 * feeding it nominal-condition counters keeps the feature
 * distribution it learned; the interference itself reaches the
 * timing through the chip model, not the features.  The profiled
 * core sits out the chip interval (its work happened on the
 * profiling core), exactly mirroring the single-core controller's
 * semantics.
 */

#ifndef ADAPTSIM_CONTROL_CHIP_CONTROLLER_HH
#define ADAPTSIM_CONTROL_CHIP_CONTROLLER_HH

#include <memory>
#include <vector>

#include "control/controller.hh"
#include "sim/chip_session.hh"
#include "uarch/core_config.hh"

namespace adaptsim::control
{

/** ChipController knobs. */
struct ChipControllerOptions
{
    std::uint64_t intervalLength = 10000;
    counters::FeatureSet featureSet =
        counters::FeatureSet::Advanced;
    double detectorThreshold = 1.0;
    space::Configuration initialConfig;   ///< every core starts here

    /** Chip geometry; coreConfigs is overwritten with one
     *  initialConfig per workload. */
    uarch::ChipConfig chip;

    workload::TraceCache *traceCache = nullptr;

    /** Timing model for the chip and profiling intervals; nullptr
     *  selects sim::perfModel("cycle"). */
    const sim::PerfModel *backend = nullptr;
};

/** Whole-run outcome of a chip execution. */
struct ChipRunStats
{
    std::vector<RunStats> cores;               ///< one per core
    std::vector<sim::CoreInterference> interference;  ///< final

    /** Geometric-mean per-core efficiency (bsq/W each). */
    double meanEfficiency() const;

    /** Sum of per-core committed instructions. */
    std::uint64_t totalInstructions() const;
};

/** N independent predictive policies over one shared-LLC chip. */
class ChipController
{
  public:
    /**
     * @param workloads one program per core (lifetime must cover
     *        the controller's).
     * @param model trained predictive model, shared by all policies
     *        (policies keep independent detector/prediction state).
     * @param options controller knobs.
     */
    ChipController(
        const std::vector<const workload::Workload *> &workloads,
        const ml::AdaptivityModel &model,
        const ChipControllerOptions &options);

    /** Execute @p max_instructions µops per core adaptively. */
    ChipRunStats run(std::uint64_t max_instructions);

    std::size_t numCores() const { return workloads_.size(); }

    /** Core @p i's predictions so far, by detector phase id. */
    const std::unordered_map<std::size_t, space::Configuration> &
    phasePredictions(std::size_t core) const
    {
        return policies_[core].predictions();
    }

  private:
    std::vector<const workload::Workload *> workloads_;
    ChipControllerOptions opt_;
    const sim::PerfModel &backend_;

    std::vector<std::unique_ptr<workload::WrongPathGenerator>>
        wrongPaths_;
    std::vector<CorePolicy> policies_;
};

/**
 * Reference point: every core pinned to @p config for the whole run
 * on the same chip geometry.  @p backend nullptr selects
 * sim::perfModel("cycle").
 */
ChipRunStats
runStaticChip(const std::vector<const workload::Workload *> &workloads,
              const space::Configuration &config,
              const uarch::ChipConfig &chip,
              std::uint64_t max_instructions,
              std::uint64_t interval_length = 10000,
              workload::TraceCache *trace_cache = nullptr,
              const sim::PerfModel *backend = nullptr);

} // namespace adaptsim::control

#endif // ADAPTSIM_CONTROL_CHIP_CONTROLLER_HH
