/**
 * @file
 * Trace-generation throughput: µops per second out of
 * Workload::generate (the cost the trace cache amortises away), and
 * a whole-program interval walk (the SimPoint BBV pass) done with
 * one Workload::Stream versus one generate() per interval, which
 * regenerates each segment's prefix on every call.
 */

#include "perf_harness.hh"

#include "workload/spec_suite.hh"

using namespace adaptsim;

int
main(int argc, char **argv)
{
    const auto opt = perf::PerfOptions::parse(argc, argv);
    const std::uint64_t count = opt.smoke ? 100000 : 1000000;

    const auto wl = workload::specBenchmark("crafty", 400000);

    double items = 0.0;
    const auto secs = perf::runTimed(opt, items, [&]() {
        const auto trace = wl.generate(12345, count);
        return static_cast<double>(trace.size());
    });
    perf::emitJson("perf_tracegen", opt, secs, items, "uops");

    // 3k-µop intervals over a 150k-µop program, as in the perfbench
    // Fig. 4 slice.
    constexpr std::uint64_t interval = 3000;
    const auto prog = workload::specBenchmark("crafty", 150000);
    const std::uint64_t intervals = prog.totalInstructions() / interval;

    const auto walk_secs = perf::runTimed(opt, items, [&]() {
        workload::Workload::Stream stream(prog, 0);
        std::uint64_t uops = 0;
        for (std::uint64_t i = 0; i < intervals; ++i)
            uops += stream.take(interval).size();
        return static_cast<double>(uops);
    });
    perf::emitJson("perf_tracegen_walk", opt, walk_secs, items, "uops");

    const auto ref_secs = perf::runTimed(opt, items, [&]() {
        std::uint64_t uops = 0;
        for (std::uint64_t i = 0; i < intervals; ++i)
            uops += prog.generate(i * interval, interval).size();
        return static_cast<double>(uops);
    });
    perf::emitJson("perf_tracegen_walk_generate_ref", opt, ref_secs,
                   items, "uops");
    return 0;
}
