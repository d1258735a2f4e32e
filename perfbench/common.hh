/**
 * @file
 * Shared pieces of the adaptsim benchmark: clocks, medians, output
 * digests, the metric sheet a run prints, and the bookkeeping of
 * attempted and failed operations.
 */

#ifndef ADAPTSIM_PERFBENCH_COMMON_HH
#define ADAPTSIM_PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/serial.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v);

/** FNV-1a over a stream of words (little-endian bytes); doubles
 *  contribute their bits. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }
    void add(const std::string &s);
    std::string hex() const;

  private:
    std::uint64_t h_ = adaptsim::kFnvBasis;
};

/** Attempted/failed operation counts and the correctness verdict. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;

    /** Count one operation; it fails unless @p ok. */
    void op(bool ok, const std::string &what = "");
    /** A check that is not itself an operation; fails the run. */
    void check(bool ok, const std::string &what);
    /** Compare a named digest against the frozen table. */
    void digest(const std::string &name, const std::string &value);
};

/** Frozen digests, keyed "<workload> <seed> <name>". */
struct DigestTable
{
    std::map<std::string, std::string> entries;
    std::string workload;
    std::uint64_t seed = 0;
    bool print = false;   ///< print every digest for freezing

    bool load(const std::string &path);
    /** True when digests are frozen for this workload and seed. */
    bool frozen() const;
    const std::string *lookup(const std::string &name) const;
};

DigestTable &digests();

/** Metric values by name; main() prints the ones of the run's mode
 *  with their units, and a name never set prints as 0. */
class Sheet
{
  public:
    void set(const std::string &name, double value)
    {
        values_[name] = value;
    }
    double get(const std::string &name) const;

  private:
    std::map<std::string, double> values_;
};

/**
 * Host seconds spent in each layer call the benchmark wraps, keyed
 * by span name.  Every wrapped call also becomes a span in the
 * Chrome trace while a traced pass has a TraceWriter active.
 */
class LayerClock
{
  public:
    void add(const std::string &name, double seconds);
    double seconds(const std::string &name) const;
    void clear() { seconds_.clear(); }

  private:
    std::map<std::string, double> seconds_;
};

LayerClock &layerClock();

/** Times one layer call into layerClock() (single-threaded use). */
class Span
{
  public:
    explicit Span(const char *name)
        : name_(name), start_(Clock::now())
    {
    }
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    Clock::time_point start_;
};

/** Ratio that reads 0 when nothing was attempted. */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** CPU seconds used so far by every thread of the process. */
double processCpuSeconds();

/** Process peak resident set size in MiB. */
double peakRssMb();

/** Finite and strictly positive. */
bool positiveFinite(double v);

} // namespace perfbench

#endif // ADAPTSIM_PERFBENCH_COMMON_HH
