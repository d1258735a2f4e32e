/**
 * @file
 * The cycle-level backend: uarch::Core behind the PerfModel seam.
 *
 * A session is exactly one uarch::Core — same construction, same
 * warm(), same run() — so results through the seam are bit-identical
 * to calling the core directly (the golden pipeline matrix test
 * holds through both paths).
 */

#ifndef ADAPTSIM_SIM_CYCLE_LEVEL_MODEL_HH
#define ADAPTSIM_SIM_CYCLE_LEVEL_MODEL_HH

#include "sim/perf_model.hh"
#include "uarch/core.hh"

namespace adaptsim::sim
{

/** The detailed out-of-order pipeline as a backend ("cycle"). */
class CycleLevelModel final : public PerfModel
{
  public:
    /** Reserved tag 0: the committed data/ store's records. */
    static constexpr std::uint64_t kCacheTag = 0;

    const char *name() const override { return "cycle"; }
    Fidelity fidelity() const override
    {
        return Fidelity::CycleLevel;
    }
    std::uint64_t cacheTag() const override { return kCacheTag; }
    bool supportsObservers() const override { return true; }

    std::unique_ptr<CoreSession>
    makeSession(const uarch::CoreConfig &cfg,
                workload::WrongPathGenerator &wrong_path)
        const override;

    /** Detailed multi-core session wrapping uarch::Chip (shared-LLC
     *  contention simulated, not approximated). */
    std::unique_ptr<ChipSession>
    makeChipSession(const uarch::ChipConfig &cfg,
                    const std::vector<workload::WrongPathGenerator *>
                        &wrong_paths) const override;
};

} // namespace adaptsim::sim

#endif // ADAPTSIM_SIM_CYCLE_LEVEL_MODEL_HH
