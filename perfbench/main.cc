/**
 * @file
 * adaptsim benchmark binary.
 *
 *   adaptsim_perfbench --workload <fig4-cold|fig4-warm|chip-adapt>
 *       --seed N --seconds S --trace <0|1> --data-root DIR
 *       [--digests FILE] [--print-digests] [--source-id ID]
 *
 * Runs one workload for S seconds and prints, as its last stdout
 * line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics untraced, the per-layer metrics with --trace 1.  Every data
 * dir it writes lives under DIR.  Outputs are checked against the
 * frozen digests in FILE when it holds the workload at this seed,
 * and against seed-independent invariants always.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hh"

extern char **environ;

namespace
{

using perfbench::Sheet;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"workload.generate_s", "s"},
    {"workload.uops_generated", "count"},
    {"workload.generate_uops_per_s", "1/s"},
    {"tracecache.hit_ratio", "ratio"},
    {"phase.bbv_s", "s"},
    {"phase.kmeans_s", "s"},
    {"phase.phases", "count"},
    {"uarch.warm_s", "s"},
    {"uarch.run_s", "s"},
    {"uarch.runs", "count"},
    {"uarch.committed_uops", "count"},
    {"uarch.cycles", "count"},
    {"uarch.uops_per_s", "1/s"},
    {"uarch.chip_run_s", "s"},
    {"uarch.chip_uops_per_s", "1/s"},
    {"power.metrics_s", "s"},
    {"power.calls", "count"},
    {"counters.profile_s", "s"},
    {"counters.profiles", "count"},
    {"repo.open_s", "s"},
    {"repo.records_loaded", "count"},
    {"repo.hit_ratio", "ratio"},
    {"repo.simulated", "count"},
    {"repo.flush_s", "s"},
    {"repo.records_flushed", "count"},
    {"gather.s", "s"},
    {"gather.phase_p50_s", "s"},
    {"gather.phase_p95_s", "s"},
    {"gather.memo_hit_ratio", "ratio"},
    {"pool.utilisation", "ratio"},
    {"pool.queue_wait_s", "s"},
    {"baseline.s", "s"},
    {"ml.loocv_basic_s", "s"},
    {"ml.loocv_advanced_s", "s"},
    {"ml.folds", "count"},
    {"ml.train_s", "s"},
    {"ml.predict_us", "us"},
    {"control.adaptive_s", "s"},
    {"control.static_s", "s"},
    {"control.intervals", "count"},
    {"control.profiling_intervals", "count"},
    {"control.reconfigurations", "count"},
    {"obs.trace_overhead_frac", "ratio"},
    {"warm.seed_s", "s"},
    {"warm.seed_passes", "count"},
    {"failed_frac", "ratio"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "adaptsim_perfbench: %s\nusage: adaptsim_perfbench "
                 "--workload <fig4-cold|fig4-warm|chip-adapt> --seed N "
                 "--seconds S --trace <0|1> --data-root DIR "
                 "[--digests FILE] [--print-digests] [--source-id ID]\n",
                 why);
    std::exit(2);
}

/** The build must be optimised, assertion-free and unsanitized. */
const char *
buildProblem()
{
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
    return "not an optimised NDEBUG build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
    return "sanitizer build";
#endif
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
        return "build type is not Release";
    return nullptr;
}

/** Every ADAPTSIM_* knob changes what a run does; none may be set. */
std::vector<std::string>
adaptsimKnobs()
{
    std::vector<std::string> knobs;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "ADAPTSIM_", 9) == 0)
            knobs.emplace_back(*e);
    }
    return knobs;
}

void
printJson(const perfbench::Outcome &outcome,
          const std::vector<MetricSpec> &specs, const Sheet &sheet)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                outcome.correct && outcome.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed));
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const double v = sheet.get(specs[i].name);
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", specs[i].name,
                    std::isfinite(v) ? v : 0.0, specs[i].unit);
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    std::string digest_path, source_id = "unknown";
    bool have_root = false;
    bool print_digests = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--print-digests") {
            print_digests = true;
        } else if (!has_value) {
            usage(("missing value for " + a).c_str());
        } else if (a == "--workload") {
            opt.workload = argv[++i];
        } else if (a == "--seed") {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::atof(argv[++i]);
        } else if (a == "--trace") {
            opt.trace = std::string(argv[++i]) == "1";
        } else if (a == "--data-root") {
            opt.dataRoot = argv[++i];
            have_root = true;
        } else if (a == "--digests") {
            digest_path = argv[++i];
        } else if (a == "--source-id") {
            source_id = argv[++i];
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (opt.workload != "fig4-cold" && opt.workload != "fig4-warm" &&
        opt.workload != "chip-adapt")
        usage("unknown workload");
    if (!have_root)
        usage("--data-root is required");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    if (const char *problem = buildProblem()) {
        std::fprintf(stderr, "adaptsim_perfbench: refusing: %s\n",
                     problem);
        return 2;
    }
    if (const auto knobs = adaptsimKnobs(); !knobs.empty()) {
        for (const auto &k : knobs)
            std::fprintf(stderr,
                         "adaptsim_perfbench: refusing: %s is set\n",
                         k.c_str());
        return 2;
    }

    auto &table = perfbench::digests();
    table.workload = opt.workload;
    table.seed = opt.seed;
    table.print = print_digests;
    if (!digest_path.empty() && !table.load(digest_path)) {
        std::fprintf(stderr, "adaptsim_perfbench: cannot read %s\n",
                     digest_path.c_str());
        return 2;
    }

    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    opt.threads = std::min(4u, nproc);
    std::printf("env: nproc=%u threads=%u compiler=\"%s\" build=%s "
                "source=%s workload=%s seed=%llu digests=%s\n",
                nproc, opt.threads, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                source_id.c_str(), opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                table.frozen() ? "frozen" : "invariants-only");

    Sheet sheet;
    perfbench::Outcome outcome;
    try {
        if (opt.workload == "chip-adapt")
            perfbench::runChipAdapt(opt, sheet, outcome);
        else
            perfbench::runFig4(opt, opt.workload == "fig4-warm", sheet,
                               outcome);
    } catch (const std::exception &e) {
        outcome.op(false, std::string("exception: ") + e.what());
        outcome.correct = false;
    }
    sheet.set("peak_rss_mb", perfbench::peakRssMb());
    sheet.set("failed_frac",
              perfbench::ratio(double(outcome.failed),
                               double(outcome.attempted)));

    const auto &specs = opt.trace ? kPerLayer : kEndToEnd;
    for (const auto &s : specs)
        std::printf("metric %-30s %.6g %s\n", s.name, sheet.get(s.name),
                    s.unit);
    if (outcome.attempted == 0)
        outcome.op(false, "no operation ran");
    printJson(outcome, specs, sheet);
    return outcome.correct && outcome.failed == 0 ? 0 : 1;
}
