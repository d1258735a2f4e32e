#include "common/env.hh"

#include <cstdlib>
#include <thread>

#include "common/logging.hh"

namespace adaptsim
{

namespace
{

/** Parse @p name as a long into @p out; false when unset, empty or
 *  not fully numeric (the chip knobs reject rather than salvage a
 *  prefix, unlike envLong, so "4x" is a typo and not a 4). */
bool
envLongStrict(const char *name, long &out)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return false;
    char *end = nullptr;
    out = std::strtol(raw, &end, 10);
    if (end == raw || *end != '\0') {
        warn(name, "=\"", raw,
             "\" is not an integer; using the default");
        out = 0;
        return false;
    }
    return true;
}

} // namespace

double
envDouble(const char *name, double fallback)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(raw, &end);
    if (end == raw)
        return fallback;
    return v;
}

long
envLong(const char *name, long fallback)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return fallback;
    char *end = nullptr;
    const long v = std::strtol(raw, &end, 10);
    if (end == raw)
        return fallback;
    return v;
}

std::string
envString(const char *name, const std::string &fallback)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return fallback;
    return raw;
}

double
experimentScale()
{
    const double s = envDouble("ADAPTSIM_SCALE", 1.0);
    return s > 0.0 ? s : 1.0;
}

std::string
dataDir()
{
    return envString("ADAPTSIM_DATA_DIR", "data");
}

unsigned
numThreads()
{
    const long n = envLong("ADAPTSIM_THREADS", 0);
    if (n > 0)
        return static_cast<unsigned>(n);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::size_t
flushEvery()
{
    const long n = envLong("ADAPTSIM_FLUSH_EVERY", 64);
    return n > 0 ? static_cast<std::size_t>(n) : 1;
}

std::size_t
traceCacheCapacity()
{
    const long n = envLong("ADAPTSIM_TRACE_CACHE", 48);
    return n > 0 ? static_cast<std::size_t>(n) : 1;
}

bool
metricsEnabled()
{
    const std::string v = envString("ADAPTSIM_METRICS", "1");
    return v != "0" && v != "off";
}

std::string
metricsJsonPath()
{
    const std::string v = envString("ADAPTSIM_METRICS", "");
    if (v.empty() || v == "0" || v == "off" || v == "1")
        return "";
    return v;
}

bool
traceEnabled()
{
    const std::string v = envString("ADAPTSIM_TRACE", "");
    return !v.empty() && v != "0" && v != "off";
}

std::string
traceFile()
{
    return envString("ADAPTSIM_TRACE_FILE", "adaptsim_trace.json");
}

std::string
backendName()
{
    return envString("ADAPTSIM_BACKEND", "cycle");
}

double
cascadeThreshold()
{
    return envDouble("ADAPTSIM_CASCADE_THRESHOLD", 0.08);
}

std::string
surrogatePath()
{
    return envString("ADAPTSIM_SURROGATE", "");
}

bool
cycleTraceEnabled()
{
    const std::string v = envString("ADAPTSIM_CYCLE_TRACE", "");
    return !v.empty() && v != "0" && v != "off";
}

bool
gatherMemoEnabled()
{
    const std::string v = envString("ADAPTSIM_GATHER_MEMO", "1");
    return v != "0" && v != "off";
}

double
gatherMemoThreshold()
{
    return envDouble("ADAPTSIM_GATHER_MEMO_THRESHOLD", 0.25);
}

double
gatherMemoTolerance()
{
    return envDouble("ADAPTSIM_GATHER_MEMO_TOLERANCE", 0.1);
}

std::size_t
gatherMemoProbes()
{
    const long n = envLong("ADAPTSIM_GATHER_MEMO_PROBES", 1);
    return n > 0 ? static_cast<std::size_t>(n) : 1;
}

unsigned
chipCores()
{
    long n;
    if (!envLongStrict("ADAPTSIM_CHIP_CORES", n))
        return 1;
    if (n < 1 || n > 8) {
        warn("ADAPTSIM_CHIP_CORES=", n,
             " out of range (valid 1..8); using the default of 1");
        return 1;
    }
    return static_cast<unsigned>(n);
}

unsigned
llcBanks()
{
    long n;
    if (!envLongStrict("ADAPTSIM_LLC_BANKS", n))
        return 8;
    const bool pow2 = n > 0 && (n & (n - 1)) == 0;
    if (n < 1 || n > 64 || !pow2) {
        warn("ADAPTSIM_LLC_BANKS=", n,
             " invalid (valid powers of two 1..64); using the "
             "default of 8");
        return 8;
    }
    return static_cast<unsigned>(n);
}

std::uint32_t
mixSeed()
{
    long n;
    if (!envLongStrict("ADAPTSIM_MIX_SEED", n))
        return 2010;
    if (n < 0 || n > 0xffffffffL) {
        warn("ADAPTSIM_MIX_SEED=", n,
             " out of range (valid 0..4294967295); using the "
             "default of 2010");
        return 2010;
    }
    return static_cast<std::uint32_t>(n);
}

} // namespace adaptsim
