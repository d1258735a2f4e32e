#include "workload/kernel.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace adaptsim::workload
{

using isa::MicroOp;
using isa::OpClass;

namespace
{

/// Depth of the "recent destinations" window used for dependencies.
constexpr std::size_t recentWindow = 8;

} // namespace

Kernel::Kernel(const KernelParams &params, std::uint32_t kernel_id,
               std::uint64_t seed)
    : params_(params), kernelId_(kernel_id),
      rng_(seed ^ (std::uint64_t(kernel_id) << 32))
{
    if (params_.numBlocks < 1)
        fatal("kernel needs at least one basic block");
    if (params_.blockSize < 2)
        fatal("kernel blocks need at least 2 µops (body + branch)");

    branchKind_.resize(params_.numBlocks);
    biasTaken_.resize(params_.numBlocks);
    hardTakenP_.resize(params_.numBlocks);
    tripCount_.resize(params_.numBlocks);
    tripRemaining_.resize(params_.numBlocks);
    takenTarget_.resize(params_.numBlocks);

    // Deterministic per-block branch structure mirroring real branch
    // demographics: most branches are strongly biased, a share are
    // loop back-edges with fixed trip counts (periodic → learnable),
    // and a minority are inherently data-dependent.
    Rng layout_rng = rng_.split(0x1a70);
    for (int b = 0; b < params_.numBlocks; ++b) {
        const double roll = layout_rng.nextDouble();
        if (roll < params_.hardBranchFrac) {
            branchKind_[b] = BranchKind::Hard;
            // Data-dependent: taken probability 0.35..0.8.
            hardTakenP_[b] = 0.35 + 0.45 * layout_rng.nextDouble();
        } else if (roll <
                   params_.hardBranchFrac + params_.loopBranchFrac) {
            branchKind_[b] = BranchKind::Loop;
        } else {
            branchKind_[b] = BranchKind::Biased;
            biasTaken_[b] = layout_rng.nextBool(0.55);
        }
        // Trips drawn from [T/2, T]: kernels with a large
        // loopTripCount get genuinely long, predictable streaks
        // (loop exits are then rare), while small-T kernels keep
        // short, harder loops.
        const int half = std::max(1, params_.loopTripCount / 2);
        tripCount_[b] = half + static_cast<int>(
            layout_rng.nextBounded(
                std::max(1, params_.loopTripCount - half + 1)));
        tripRemaining_[b] = tripCount_[b];

        if (branchKind_[b] == BranchKind::Loop) {
            // Self-loop: the block is an inner-loop body executing
            // tripCount times (TTT...N), the cleanest and most
            // predictable pattern — mispredicting only the exit.
            takenTarget_[b] = b;
        } else {
            // Forward jump up to 16 blocks.
            const int fwd = 2 + static_cast<int>(
                layout_rng.nextBounded(16));
            takenTarget_[b] = (b + fwd) % params_.numBlocks;
        }
    }

    // Distinct kernels live in distinct code/data regions so that
    // cache interference across phase boundaries is realistic but
    // kernels do not alias perfectly.
    codeBase_ = 0x0040'0000ULL +
                (Addr(kernel_id) << 21); // 2MB code region/kernel
    dataBase_ = 0x1000'0000ULL +
                (Addr(kernel_id) << 24); // 16MB data region/kernel

    recentIntDests_.assign(recentWindow, 1);
    recentFpDests_.assign(recentWindow, 1);
}

Addr
Kernel::pcOf(int block, int offset) const
{
    return codeBase_ +
           (Addr(block) * params_.blockSize + Addr(offset)) * 4;
}

std::int16_t
Kernel::allocIntDest()
{
    // Registers 1..31 cycle; register 0 stays "always ready".
    intDestCursor_ = intDestCursor_ % (isa::numArchRegs - 1) + 1;
    const auto reg = static_cast<std::int16_t>(intDestCursor_);
    recentIntDests_[rng_.nextBounded(recentWindow)] = reg;
    return reg;
}

std::int16_t
Kernel::allocFpDest()
{
    fpDestCursor_ = fpDestCursor_ % (isa::numArchRegs - 1) + 1;
    const auto reg = static_cast<std::int16_t>(fpDestCursor_);
    recentFpDests_[rng_.nextBounded(recentWindow)] = reg;
    return reg;
}

std::int16_t
Kernel::pickIntSrc()
{
    // shortDepFrac controls serialisation end to end: very recent
    // producers (tight chains) with probability shortDepFrac, the
    // recent window with min(shortDepFrac, 0.3), and otherwise a
    // long-committed value (loop invariants, induction bases) that
    // is always ready at dispatch — the source of real numeric
    // code's instruction-level parallelism.
    if (rng_.nextBool(params_.shortDepFrac))
        return recentIntDests_[rng_.nextBounded(2)];
    if (rng_.nextBool(std::min(params_.shortDepFrac, 0.3)))
        return recentIntDests_[rng_.nextBounded(recentWindow)];
    return 0;
}

std::int16_t
Kernel::pickFpSrc()
{
    if (rng_.nextBool(params_.shortDepFrac))
        return recentFpDests_[rng_.nextBounded(2)];
    if (rng_.nextBool(std::min(params_.shortDepFrac, 0.3)))
        return recentFpDests_[rng_.nextBounded(recentWindow)];
    return 0;
}

Addr
Kernel::nextDataAddr()
{
    const std::uint64_t ws = std::max<std::uint64_t>(
        params_.dataWorkingSet, 64);
    if (rng_.nextBool(params_.randomAccessFrac)) {
        // 8-byte-aligned random access within the working set.
        return dataBase_ + (rng_.nextBounded(ws) & ~Addr(7));
    }
    streamPos_ = (streamPos_ +
                  static_cast<std::uint64_t>(params_.strideBytes)) % ws;
    return dataBase_ + (streamPos_ & ~Addr(7));
}

MicroOp
Kernel::makeBodyOp(OpClass cls)
{
    MicroOp op;
    op.pc = pcOf(block_, offset_);
    op.bbId = (kernelId_ << 16) | std::uint32_t(block_);
    op.opClass = cls;

    switch (cls) {
      case OpClass::Load:
        op.fpData = rng_.nextBool(
            params_.fracFpAlu + params_.fracFpMul > 0.05 ? 0.5 : 0.0);
        if (rng_.nextBool(params_.pointerChaseFrac)) {
            // Address depends on the previous load's result.
            op.srcReg0 = lastLoadDest_;
            op.effAddr = dataBase_ +
                (rng_.nextBounded(std::max<std::uint64_t>(
                     params_.dataWorkingSet, 64)) & ~Addr(7));
        } else {
            op.srcReg0 = pickIntSrc();
            op.effAddr = nextDataAddr();
        }
        op.destReg = op.fpData ? allocFpDest() : allocIntDest();
        if (!op.fpData)
            lastLoadDest_ = op.destReg;
        break;

      case OpClass::Store:
        op.fpData = false;
        op.srcReg0 = pickIntSrc();  // data
        op.srcReg1 = pickIntSrc();  // address base
        op.effAddr = nextDataAddr();
        break;

      case OpClass::FpAlu:
      case OpClass::FpMul:
      case OpClass::FpDiv:
        op.srcReg0 = pickFpSrc();
        op.srcReg1 = pickFpSrc();
        op.destReg = allocFpDest();
        break;

      case OpClass::Nop:
        break;

      default: // integer ALU/mul/div
        op.srcReg0 = pickIntSrc();
        if (rng_.nextBool(0.7))
            op.srcReg1 = pickIntSrc();
        op.destReg = allocIntDest();
        break;
    }
    return op;
}

MicroOp
Kernel::makeBranch()
{
    MicroOp op;
    op.pc = pcOf(block_, params_.blockSize - 1);
    op.bbId = (kernelId_ << 16) | std::uint32_t(block_);
    op.opClass = OpClass::Branch;
    op.isCond = true;
    op.srcReg0 = pickIntSrc();

    // Outcome per the block's archetype.  Biased and loop branches
    // additionally flip with branchNoise, modelling occasional
    // data-dependent irregularity.
    bool taken;
    switch (branchKind_[block_]) {
      case BranchKind::Hard:
        taken = rng_.nextBool(hardTakenP_[block_]);
        break;
      case BranchKind::Loop:
        if (tripRemaining_[block_] > 0) {
            taken = true;
            --tripRemaining_[block_];
        } else {
            taken = false;
            tripRemaining_[block_] = tripCount_[block_];
        }
        if (rng_.nextBool(params_.branchNoise))
            taken = !taken;
        break;
      default:
        taken = biasTaken_[block_];
        if (rng_.nextBool(params_.branchNoise))
            taken = !taken;
        break;
    }

    const int fallthrough = (block_ + 1) % params_.numBlocks;
    const int next = taken ? takenTarget_[block_] : fallthrough;
    op.taken = taken;
    op.target = pcOf(next, 0);

    block_ = next;
    offset_ = 0;
    return op;
}

MicroOp
Kernel::next()
{
    if (offset_ == params_.blockSize - 1)
        return makeBranch();

    // Choose the op class from the mix.
    const double roll = rng_.nextDouble();
    double acc = 0.0;
    OpClass cls = OpClass::IntAlu;
    const KernelParams &p = params_;
    struct Slot { double frac; OpClass cls; };
    const Slot slots[] = {
        {p.fracLoad, OpClass::Load},
        {p.fracStore, OpClass::Store},
        {p.fracFpAlu, OpClass::FpAlu},
        {p.fracFpMul, OpClass::FpMul},
        {p.fracFpDiv, OpClass::FpDiv},
        {p.fracIntMul, OpClass::IntMul},
        {p.fracIntDiv, OpClass::IntDiv},
    };
    for (const auto &slot : slots) {
        acc += slot.frac;
        if (roll < acc) {
            cls = slot.cls;
            break;
        }
    }

    MicroOp op = makeBodyOp(cls);
    ++offset_;
    return op;
}

void
Kernel::skip(std::uint64_t count)
{
    // State transitions depend on the generated values, so skipping
    // must actually generate: it costs as much as next() per µop.
    // Only a stream opened part-way into a segment skips, once (see
    // Workload::Stream); sequential walks never do.  The counter adds
    // the µops per skip, so it measures wasted generation.
    if (count == 0)
        return;
    OBS_ONLY(OBS_COUNTER("workload/skipped_uops").add(count);)
    for (std::uint64_t i = 0; i < count; ++i)
        (void)next();
}

} // namespace adaptsim::workload
