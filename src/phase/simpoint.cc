#include "phase/simpoint.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "phase/kmeans.hh"

namespace adaptsim::phase
{

std::vector<Bbv>
intervalBbvs(const workload::Workload &wl,
             std::uint64_t interval_length)
{
    const std::uint64_t total = wl.totalInstructions();
    const std::uint64_t num_intervals = total / interval_length;
    if (num_intervals == 0)
        fatal("workload ", wl.name(), " shorter than one interval");

    std::vector<Bbv> bbvs;
    bbvs.reserve(num_intervals);
    // Walk the whole program once, interval by interval.
    workload::Workload::Stream stream(wl, 0);
    for (std::uint64_t i = 0; i < num_intervals; ++i)
        bbvs.push_back(Bbv::ofTrace(stream.take(interval_length)));
    return bbvs;
}

std::vector<Phase>
extractPhases(const workload::Workload &wl,
              const SimPointOptions &options)
{
    const auto bbvs = intervalBbvs(wl, options.intervalLength);

    std::vector<std::vector<double>> points;
    points.reserve(bbvs.size());
    for (const auto &bbv : bbvs)
        points.push_back(bbv.values());

    Rng rng(options.seed ^
            std::hash<std::string>{}(wl.name()));
    const auto clusters =
        kmeans(points, options.maxPhases, rng);

    const std::size_t k = clusters.centroids.size();
    // Representative = interval closest to its cluster centroid.
    std::vector<std::size_t> rep(k, ~std::size_t(0));
    std::vector<double> rep_d(
        k, std::numeric_limits<double>::max());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::size_t c = clusters.assignment[i];
        double d = 0.0;
        for (std::size_t j = 0; j < points[i].size(); ++j) {
            const double diff =
                points[i][j] - clusters.centroids[c][j];
            d += diff * diff;
        }
        if (d < rep_d[c]) {
            rep_d[c] = d;
            rep[c] = i;
        }
    }

    std::vector<Phase> phases;
    for (std::size_t c = 0; c < k; ++c) {
        if (rep[c] == ~std::size_t(0))
            continue;   // empty cluster
        Phase p;
        p.workload = wl.name();
        p.startInst = rep[c] * options.intervalLength;
        p.lengthInsts = options.intervalLength;
        p.weight = double(clusters.clusterSizes[c]) /
                   double(points.size());
        p.signature = bbvs[rep[c]];
        phases.push_back(std::move(p));
    }
    // Order by position and index them.
    std::sort(phases.begin(), phases.end(),
              [](const Phase &a, const Phase &b) {
                  return a.startInst < b.startInst;
              });
    for (std::size_t i = 0; i < phases.size(); ++i)
        phases[i].index = i;
    return phases;
}

} // namespace adaptsim::phase
