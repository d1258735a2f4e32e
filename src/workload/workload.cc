#include "workload/workload.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serial.hh"

namespace adaptsim::workload
{

Workload::Workload(std::string name, std::vector<Segment> segments,
                   std::uint64_t seed)
    : name_(std::move(name)),
      uid_(fnv1a64(name_.data(), name_.size())),
      segments_(std::move(segments)), totalLength_(0), seed_(seed)
{
    if (segments_.empty())
        fatal("workload ", name_, " has no segments");
    segmentStart_.reserve(segments_.size());
    for (const auto &seg : segments_) {
        if (seg.length == 0)
            fatal("workload ", name_, " has a zero-length segment");
        segmentStart_.push_back(totalLength_);
        totalLength_ += seg.length;
    }
}

std::uint32_t
Workload::kernelIdOf(std::size_t segment_index) const
{
    const std::string &kname = segments_[segment_index].kernel.name;
    for (std::size_t i = 0; i < segment_index; ++i) {
        if (segments_[i].kernel.name == kname)
            return kernelIdOf(i);
    }
    return static_cast<std::uint32_t>(segment_index);
}

std::vector<isa::MicroOp>
Workload::generate(std::uint64_t start, std::uint64_t count) const
{
    return Stream(*this, start).take(count);
}

Workload::Stream::Stream(const Workload &wl, std::uint64_t start)
    : wl_(&wl)
{
    // Locate the segment containing the (wrapped) start position.
    const std::uint64_t pos = start % wl.totalLength_;
    const auto it = std::upper_bound(wl.segmentStart_.begin(),
                                     wl.segmentStart_.end(), pos);
    seg_ = static_cast<std::size_t>(it - wl.segmentStart_.begin()) - 1;
    into_ = pos - wl.segmentStart_[seg_];
}

std::vector<isa::MicroOp>
Workload::Stream::take(std::uint64_t count)
{
    std::vector<isa::MicroOp> out;
    out.reserve(count);
    while (out.size() < count) {
        if (into_ == wl_->segments_[seg_].length) {
            // Segment exhausted: move on, wrapping past the end.
            seg_ = (seg_ + 1) % wl_->segments_.size();
            into_ = 0;
            kernel_.reset();
        }
        const Segment &seg = wl_->segments_[seg_];
        if (!kernel_) {
            // Kernels are seeded by identity so that repeated
            // occurrences of the same kernel replay the same code.
            // Opened lazily, so a stream that is never read (or only
            // read up to a segment end) builds no spare kernel.
            const std::uint32_t kid = wl_->kernelIdOf(seg_);
            kernel_.emplace(seg.kernel, kid,
                            wl_->seed_ ^ (std::uint64_t(kid) * 0x9e37UL));
            kernel_->skip(into_);
        }
        const std::uint64_t n =
            std::min(count - out.size(), seg.length - into_);
        for (std::uint64_t i = 0; i < n; ++i)
            out.push_back(kernel_->next());
        into_ += n;
    }
    return out;
}

KernelParams
Workload::averageParams() const
{
    KernelParams avg;
    avg.name = name_ + ".avg";
    avg.fracLoad = avg.fracStore = avg.fracFpAlu = avg.fracFpMul = 0.0;
    avg.fracFpDiv = avg.fracIntMul = avg.fracIntDiv = 0.0;
    avg.shortDepFrac = 0.0;
    avg.randomAccessFrac = 0.0;
    avg.pointerChaseFrac = 0.0;
    avg.branchNoise = 0.0;
    avg.hardBranchFrac = 0.0;
    avg.loopBranchFrac = 0.0;
    double ws = 0.0;
    double block_size = 0.0;

    const double total = static_cast<double>(totalLength_);
    for (const auto &seg : segments_) {
        const double w = static_cast<double>(seg.length) / total;
        const KernelParams &k = seg.kernel;
        avg.fracLoad += w * k.fracLoad;
        avg.fracStore += w * k.fracStore;
        avg.fracFpAlu += w * k.fracFpAlu;
        avg.fracFpMul += w * k.fracFpMul;
        avg.fracFpDiv += w * k.fracFpDiv;
        avg.fracIntMul += w * k.fracIntMul;
        avg.fracIntDiv += w * k.fracIntDiv;
        avg.shortDepFrac += w * k.shortDepFrac;
        avg.randomAccessFrac += w * k.randomAccessFrac;
        avg.pointerChaseFrac += w * k.pointerChaseFrac;
        avg.branchNoise += w * k.branchNoise;
        avg.hardBranchFrac += w * k.hardBranchFrac;
        avg.loopBranchFrac += w * k.loopBranchFrac;
        ws += w * static_cast<double>(k.dataWorkingSet);
        block_size += w * k.blockSize;
    }
    avg.dataWorkingSet = static_cast<std::uint64_t>(ws);
    avg.blockSize = std::max(2, static_cast<int>(block_size));
    return avg;
}

} // namespace adaptsim::workload
