/**
 * @file
 * Tests of the workload (kernel schedule) abstraction.
 */

#include <gtest/gtest.h>

#include "workload/spec_suite.hh"
#include "workload/workload.hh"

using namespace adaptsim;
using namespace adaptsim::workload;

namespace
{

KernelParams
kernelNamed(const std::string &name, double frac_load)
{
    KernelParams k;
    k.name = name;
    k.fracLoad = frac_load;
    k.numBlocks = 16;
    k.blockSize = 6;
    return k;
}

/** True when @p a and @p b hold the same µops, field by field. */
bool
sameOps(const std::vector<isa::MicroOp> &a,
        const std::vector<isa::MicroOp> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto &x = a[i];
        const auto &y = b[i];
        if (x.pc != y.pc || x.opClass != y.opClass ||
            x.destReg != y.destReg || x.srcReg0 != y.srcReg0 ||
            x.srcReg1 != y.srcReg1 || x.fpData != y.fpData ||
            x.effAddr != y.effAddr || x.bbId != y.bbId ||
            x.isCond != y.isCond || x.taken != y.taken ||
            x.target != y.target)
            return false;
    }
    return true;
}

/** @p n µops from a stream at @p start, read @p chunk at a time with
 *  an empty take(0) before each chunk (it must not move the cursor). */
std::vector<isa::MicroOp>
streamed(const Workload &wl, std::uint64_t start, std::uint64_t n,
         std::uint64_t chunk)
{
    Workload::Stream stream(wl, start);
    std::vector<isa::MicroOp> out;
    while (out.size() < n) {
        EXPECT_TRUE(stream.take(0).empty());
        const auto part =
            stream.take(std::min<std::uint64_t>(chunk, n - out.size()));
        out.insert(out.end(), part.begin(), part.end());
    }
    return out;
}

Workload
makeWorkload()
{
    return Workload("testwl",
                    {{kernelNamed("A", 0.1), 10000},
                     {kernelNamed("B", 0.4), 20000},
                     {kernelNamed("A", 0.1), 10000}},
                    99);
}

} // namespace

TEST(Workload, TotalLength)
{
    EXPECT_EQ(makeWorkload().totalInstructions(), 40000u);
}

TEST(Workload, GenerateWindowsAreConsistent)
{
    const auto wl = makeWorkload();
    const auto full = wl.generate(0, 1000);
    const auto tail = wl.generate(500, 500);
    for (std::size_t i = 0; i < 500; ++i) {
        EXPECT_EQ(full[500 + i].pc, tail[i].pc);
        EXPECT_EQ(full[500 + i].opClass, tail[i].opClass);
    }
}

TEST(Workload, CrossSegmentGeneration)
{
    const auto wl = makeWorkload();
    const auto window = wl.generate(9500, 1000);   // spans A → B
    EXPECT_EQ(window.size(), 1000u);
    // Segment A's kernel id is 0, B's is 1.
    EXPECT_EQ(window.front().bbId >> 16, 0u);
    EXPECT_EQ(window.back().bbId >> 16, 1u);
}

TEST(Workload, RepeatedKernelReplaysSameCode)
{
    const auto wl = makeWorkload();
    // Segment 0 (A) and segment 2 (A again) replay identical µops.
    const auto first = wl.generate(0, 200);
    const auto repeat = wl.generate(30000, 200);
    for (std::size_t i = 0; i < 200; ++i) {
        EXPECT_EQ(first[i].pc, repeat[i].pc);
        EXPECT_EQ(first[i].opClass, repeat[i].opClass);
    }
}

TEST(Workload, WrapsAroundEnd)
{
    const auto wl = makeWorkload();
    const auto wrapped = wl.generate(39990, 20);
    const auto head = wl.generate(0, 10);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_EQ(wrapped[10 + i].pc, head[i].pc);
}

TEST(Workload, AverageParamsIsLengthWeighted)
{
    const auto wl = makeWorkload();
    const auto avg = wl.averageParams();
    // 20k ops at 0.1 + 20k at 0.4 → 0.25.
    EXPECT_NEAR(avg.fracLoad, 0.25, 1e-12);
}

TEST(Workload, RejectsEmptySchedules)
{
    EXPECT_EXIT((Workload{"bad", {}, 1}),
                ::testing::ExitedWithCode(1), "");
}

TEST(Workload, RejectsZeroLengthSegments)
{
    EXPECT_EXIT((Workload{"bad",
                          {{kernelNamed("A", 0.1), 0}},
                          1}),
                ::testing::ExitedWithCode(1), "");
}

TEST(WorkloadStream, ChunkedTakesEqualGenerateOnEverySpecProgram)
{
    // Windows of every program that exercise each way a stream moves:
    // opening mid-segment, entering a segment whose kernel already
    // ran (fresh kernel, same seed), and wrapping past the end.
    constexpr std::uint64_t kLength = 60000;
    constexpr std::uint64_t kWindow = 6000;
    std::size_t repeated_windows = 0;
    for (const auto &wl : specSuite(kLength)) {
        const auto &segs = wl.segments();
        std::vector<std::uint64_t> starts;
        starts.push_back(segs[0].length / 2 + 1);   // mid-segment
        std::uint64_t seg_start = 0;
        for (std::size_t i = 0; i < segs.size(); ++i) {
            bool repeat = false;
            for (std::size_t j = 0; j < i; ++j)
                repeat |= segs[j].kernel.name == segs[i].kernel.name;
            if (repeat) {
                // Start 1000 µops before the repeated segment.
                ASSERT_GE(seg_start, 1000u) << wl.name();
                starts.push_back(seg_start - 1000);
                ++repeated_windows;
                break;
            }
            seg_start += segs[i].length;
        }
        starts.push_back(kLength - 1500);            // wraps
        for (const std::uint64_t start : starts) {
            EXPECT_TRUE(wl.generate(start, 0).empty());
            const auto ref = wl.generate(start, kWindow);
            ASSERT_EQ(ref.size(), kWindow);
            for (const std::uint64_t chunk : {1u, 997u, 3000u}) {
                EXPECT_TRUE(
                    sameOps(streamed(wl, start, kWindow, chunk), ref))
                    << wl.name() << " start " << start << " chunk "
                    << chunk;
            }
        }
    }
    EXPECT_GT(repeated_windows, 0u);
}

TEST(WorkloadStream, WholeProgramWalkMatchesPerIntervalGenerate)
{
    const auto wl = makeWorkload();
    Workload::Stream stream(wl, 0);
    // 41 intervals of 1000: the last one wraps to the head.
    for (std::uint64_t i = 0; i < 41; ++i)
        ASSERT_TRUE(sameOps(stream.take(1000), wl.generate(i * 1000, 1000)))
            << i;
}

TEST(WorkloadStream, SuiteTraceMatchesFrozenDigest)
{
    // FNV-1a over every field of every µop of each program, plus a
    // mid-segment window: pins the generated stream itself, so any
    // change to how generation walks or seeds kernels shows here.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x100000001b3ULL;
    };
    for (const auto &wl : specSuite(60000)) {
        for (const auto &trace :
             {wl.generate(0, 60000), wl.generate(20011, 5000)}) {
            for (const auto &op : trace) {
                mix(op.pc);
                mix(static_cast<std::uint64_t>(op.opClass));
                mix(static_cast<std::uint16_t>(op.destReg));
                mix(static_cast<std::uint16_t>(op.srcReg0));
                mix(static_cast<std::uint16_t>(op.srcReg1));
                mix(op.fpData);
                mix(op.effAddr);
                mix(op.bbId);
                mix(op.isCond);
                mix(op.taken);
                mix(op.target);
            }
        }
    }
    EXPECT_EQ(h, 0xbf57ca536cc4c58eULL) << std::hex << h;
}
