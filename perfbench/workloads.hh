/**
 * @file
 * The benchmark's workloads.  Each one runs repetitions until the
 * run's time is used, then writes its metrics into a Sheet: the
 * end-to-end ones in an untraced run, the per-layer ones in a traced
 * run, which first repeats the untraced body to measure tracing
 * overhead against it.
 */

#ifndef ADAPTSIM_PERFBENCH_WORKLOADS_HH
#define ADAPTSIM_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>

#include "common.hh"

namespace adaptsim::obs
{
struct Snapshot;
}

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 2010;   ///< gather and mix seed
    double seconds = 10.0;       ///< measured time per run
    bool trace = false;
    std::filesystem::path dataRoot;   ///< every data dir lives here
    unsigned threads = 1;
};

/** fig4-cold (warm = false) and fig4-warm (warm = true). */
void runFig4(const Options &opt, bool warm, Sheet &sheet,
             Outcome &outcome);

/** chip-adapt: 4-core co-runs, adaptive against static. */
void runChipAdapt(const Options &opt, Sheet &sheet, Outcome &outcome);

/** A new empty directory @p name under the run's data root. */
std::filesystem::path freshDir(const Options &opt,
                               const std::string &name);

enum class Pass
{
    Warmup,   ///< outputs checked, time discarded
    Timed,    ///< untraced, counted in the medians
    Traced    ///< per-layer metrics, with a Chrome trace active
};

inline const char *
passName(Pass p)
{
    return p == Pass::Warmup ? "warm-up" : p == Pass::Timed ? "timed" : "traced";
}

/**
 * The repetition schedule of every workload: one warm-up pass, then
 * timed passes until at least @p min_timed ran and the run's seconds
 * are used.  A traced run spends half its seconds on timed passes
 * and then runs one traced pass with the obs registry zeroed and a
 * TraceWriter active.  @p pass runs one repetition and returns the
 * seconds it took.
 */
void schedule(const Options &opt, std::size_t min_timed,
              const std::function<double(Pass)> &pass);

/** Sum and count of a span histogram in @p snap (zero if absent). */
struct SpanTotals
{
    double seconds = 0.0;
    std::uint64_t count = 0;
    double p50 = 0.0;
    double p95 = 0.0;
};
SpanTotals spanTotals(const adaptsim::obs::Snapshot &snap,
                      const std::string &name);
std::uint64_t counterValue(const adaptsim::obs::Snapshot &snap,
                           const std::string &name);
/** Sum of every counter whose name starts with @p prefix and ends
 *  with @p suffix. */
std::uint64_t counterSum(const adaptsim::obs::Snapshot &snap,
                         const std::string &prefix,
                         const std::string &suffix);

/** Per-layer metrics shared by every workload: thread pool, trace
 *  cache and tracing overhead. */
void setCommonLayerMetrics(const adaptsim::obs::Snapshot &snap,
                           double traced_wall, double untraced_wall,
                           Sheet &sheet);

} // namespace perfbench

#endif // ADAPTSIM_PERFBENCH_WORKLOADS_HH
