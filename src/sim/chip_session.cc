#include "sim/chip_session.hh"

#include "common/logging.hh"

namespace adaptsim::sim
{

ChipSession::ChipSession(
    const uarch::ChipConfig &cfg,
    const std::vector<workload::WrongPathGenerator *> &wrong_paths)
    : chip_(cfg, wrong_paths),
      interference_(chip_.numCores(), CoreInterference{})
{
}

uarch::ChipResult
ChipSession::run(const std::vector<std::span<const isa::MicroOp>> &traces,
                 const std::vector<uarch::SimObserver *> &observers)
{
    uarch::ChipResult res = chip_.run(traces, observers);
    for (std::size_t i = 0; i < chip_.numCores(); ++i) {
        CoreInterference &itf = interference_[i];
        itf.occupancyShare = res.occupancyShare[i];
        itf.sharedMissRatio = res.sharedMissRatio[i];
        const auto &ev = res.cores[i].events;
        itf.avgQueueCycles =
            ev.llcAccesses ? double(ev.llcQueueCycles) /
                                 double(ev.llcAccesses)
                           : 0.0;
    }
    return res;
}

CoreInterference
ChipSession::interference(std::size_t core) const
{
    if (core >= interference_.size())
        panic("ChipSession: core ", core, " on a ",
              interference_.size(), "-core chip");
    return interference_[core];
}

std::unique_ptr<ChipSession>
PerfModel::makeChipSession(
    const uarch::ChipConfig &cfg,
    const std::vector<workload::WrongPathGenerator *> &wrong_paths)
    const
{
    return std::make_unique<ChipSession>(cfg, wrong_paths);
}

} // namespace adaptsim::sim
