#include "workloads.hh"

#include "obs/registry.hh"
#include "obs/trace.hh"

namespace perfbench
{

std::filesystem::path
freshDir(const Options &opt, const std::string &name)
{
    const auto dir = opt.dataRoot / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

void
schedule(const Options &opt, std::size_t min_timed,
         const std::function<double(Pass)> &pass)
{
    constexpr std::size_t kMaxTimed = 64;
    pass(Pass::Warmup);
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const std::size_t min = opt.trace ? 2 : min_timed;
    double spent = 0.0;
    for (std::size_t timed = 0;
         timed < min || (spent < budget && timed < kMaxTimed); ++timed)
        spent += pass(Pass::Timed);
    if (!opt.trace)
        return;

    adaptsim::obs::Registry::global().reset();
    layerClock().clear();
    adaptsim::obs::TraceWriter writer((opt.dataRoot / "trace.json").string());
    adaptsim::obs::TraceWriter::setActive(&writer);
    pass(Pass::Traced);
    adaptsim::obs::TraceWriter::setActive(nullptr);
    writer.finish();
}

SpanTotals
spanTotals(const adaptsim::obs::Snapshot &snap, const std::string &name)
{
    SpanTotals t;
    for (const auto &[hist, stats] : snap.histograms) {
        if (hist != name + ".seconds")
            continue;
        t.seconds = stats.sum;
        t.count = stats.count;
        t.p50 = stats.quantile(0.5);
        t.p95 = stats.quantile(0.95);
    }
    return t;
}

std::uint64_t
counterValue(const adaptsim::obs::Snapshot &snap, const std::string &name)
{
    for (const auto &[counter, value] : snap.counters) {
        if (counter == name)
            return value;
    }
    return 0;
}

std::uint64_t
counterSum(const adaptsim::obs::Snapshot &snap, const std::string &prefix,
           const std::string &suffix)
{
    std::uint64_t sum = 0;
    for (const auto &[name, value] : snap.counters) {
        if (name.size() >= prefix.size() + suffix.size() &&
            name.starts_with(prefix) && name.ends_with(suffix))
            sum += value;
    }
    return sum;
}

void
setCommonLayerMetrics(const adaptsim::obs::Snapshot &snap,
                      double traced_wall, double untraced_wall,
                      Sheet &sheet)
{
    sheet.set("pool.utilisation",
              ratio(double(counterValue(snap, "pool/busy.micros")),
                    double(counterValue(snap, "pool/capacity.micros"))));
    sheet.set("pool.queue_wait_s", spanTotals(snap, "pool/queue_wait").seconds);
    const double hits = double(counterValue(snap, "tracecache/hits"));
    const double misses = double(counterValue(snap, "tracecache/misses"));
    sheet.set("tracecache.hit_ratio", ratio(hits, hits + misses));
    sheet.set("obs.trace_overhead_frac",
              untraced_wall > 0.0 ? traced_wall / untraced_wall - 1.0
                                  : 0.0);
}

} // namespace perfbench
