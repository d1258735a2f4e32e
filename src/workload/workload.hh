/**
 * @file
 * A synthetic program: a schedule of kernels with explicit phase
 * structure, standing in for one SPEC CPU 2000 benchmark.
 */

#ifndef ADAPTSIM_WORKLOAD_WORKLOAD_HH
#define ADAPTSIM_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "isa/micro_op.hh"
#include "workload/kernel.hh"

namespace adaptsim::workload
{

/** One scheduled stretch of a kernel's execution. */
struct Segment
{
    KernelParams kernel;       ///< behaviour during the segment
    std::uint64_t length;      ///< dynamic µops in the segment
};

/**
 * A deterministic synthetic program.
 *
 * Each distinct kernel name within the program denotes one piece of
 * static code: every occurrence replays the same layout and stream, so
 * repeated segments yield genuinely recurring phases (as loops do in
 * real programs).
 */
class Workload
{
  public:
    /**
     * @param name program name (SPEC-2000 style).
     * @param segments the phase schedule; total length is their sum.
     * @param seed master seed for all kernel streams.
     */
    Workload(std::string name, std::vector<Segment> segments,
             std::uint64_t seed);

    const std::string &name() const { return name_; }

    /**
     * Stable 64-bit identity (FNV-1a of the name), cheap enough to
     * key per-lookup cache structures without string building.
     */
    std::uint64_t uid() const { return uid_; }

    /** Total dynamic µop count of the program. */
    std::uint64_t totalInstructions() const { return totalLength_; }

    /** Number of schedule segments. */
    std::size_t numSegments() const { return segments_.size(); }

    const std::vector<Segment> &segments() const { return segments_; }

    class Stream;

    /**
     * Generate @p count µops starting at absolute dynamic position
     * @p start (positions past the end wrap around the schedule).
     * Equivalent to Stream(*this, start).take(count).
     */
    std::vector<isa::MicroOp> generate(std::uint64_t start,
                                       std::uint64_t count) const;

    /**
     * Length-weighted average of the kernel parameters; used to drive
     * the wrong-path generator with a plausible instruction mix.
     */
    KernelParams averageParams() const;

    /** Master seed (exposed so wrong-path streams can derive). */
    std::uint64_t seed() const { return seed_; }

  private:
    /** Stable kernel identity: index of first segment with the name. */
    std::uint32_t kernelIdOf(std::size_t segment_index) const;

    std::string name_;
    std::uint64_t uid_;
    std::vector<Segment> segments_;
    std::vector<std::uint64_t> segmentStart_; ///< cumulative offsets
    std::uint64_t totalLength_;
    std::uint64_t seed_;
};

/**
 * A sequential cursor over a workload's dynamic µop stream.
 *
 * A kernel's state depends on every µop it has emitted, so entering a
 * segment part-way means regenerating its prefix.  A stream pays that
 * once, when it first opens its start segment; afterwards it keeps
 * the current segment's kernel alive, so consecutive take() calls
 * cost O(µops taken) and a whole-program walk costs O(program).  It
 * holds one kernel, never the generated µops.  The workload must
 * outlive the stream.
 */
class Workload::Stream
{
  public:
    /** Position the cursor at @p start (wrapped into the program). */
    Stream(const Workload &wl, std::uint64_t start);

    /**
     * The next @p count µops; the cursor moves past them, crossing
     * segment boundaries and wrapping past the end like generate().
     */
    std::vector<isa::MicroOp> take(std::uint64_t count);

  private:
    const Workload *wl_;
    std::size_t seg_;                ///< segment of the next µop
    std::uint64_t into_;             ///< its offset within seg_
    std::optional<Kernel> kernel_;   ///< seg_'s kernel, at into_
};

} // namespace adaptsim::workload

#endif // ADAPTSIM_WORKLOAD_WORKLOAD_HH
