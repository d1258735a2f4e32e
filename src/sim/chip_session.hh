/**
 * @file
 * The multi-core half of the timing model.
 *
 * A ChipSession is to a chip what CoreSession is to one core: it
 * owns a uarch::Chip — the detailed shared-LLC contention model —
 * for one co-run mix and persists warm structures across run()
 * calls.  Besides the chip's results it keeps each core's
 * interference features from the last run (LLC occupancy share,
 * shared-miss ratio, queue delay), which ChipRunStats reports.
 * A one-core chip attaches no LLC and is bit-identical to a
 * CoreSession.
 */

#ifndef ADAPTSIM_SIM_CHIP_SESSION_HH
#define ADAPTSIM_SIM_CHIP_SESSION_HH

#include <span>
#include <vector>

#include "sim/perf_model.hh"
#include "uarch/chip.hh"

namespace adaptsim::sim
{

/** Per-core shared-resource pressure observed by the last run(). */
struct CoreInterference
{
    double occupancyShare = 0.0;   ///< fraction of LLC lines owned
    double sharedMissRatio = 0.0;  ///< LLC misses / LLC accesses
    double avgQueueCycles = 0.0;   ///< mean bank/MSHR wait per access
};

/** One simulated chip (see file comment). */
class ChipSession
{
  public:
    /** @p wrong_paths holds one wrong-path source per core. */
    ChipSession(const uarch::ChipConfig &cfg,
                const std::vector<workload::WrongPathGenerator *>
                    &wrong_paths);

    /** Functionally warm one core (private levels + shared LLC). */
    void warm(std::size_t core, std::span<const isa::MicroOp> trace)
    {
        chip_.warm(core, trace);
    }

    /**
     * Timed co-run of one trace per core (empty spans idle that
     * core).  @p observers is empty or one entry per core.
     */
    uarch::ChipResult
    run(const std::vector<std::span<const isa::MicroOp>> &traces,
        const std::vector<uarch::SimObserver *> &observers = {});

    /** Move one core to a new design point (reconfiguration flush
     *  semantics: private state restarts cold). */
    void reconfigureCore(std::size_t core, const space::Configuration &c)
    {
        chip_.reconfigureCore(core, c);
    }

    const uarch::ChipConfig &config() const { return chip_.config(); }

    /** Interference features of @p core from the last run(). */
    CoreInterference interference(std::size_t core) const;

    /** Power/performance metrics for one core's run() result. */
    power::Metrics metricsFor(std::size_t core,
                              const uarch::SimResult &result) const
    {
        return power::computeMetrics(chip_.core(core).config(),
                                     result.events);
    }

  private:
    uarch::Chip chip_;
    std::vector<CoreInterference> interference_;
};

} // namespace adaptsim::sim

#endif // ADAPTSIM_SIM_CHIP_SESSION_HH
