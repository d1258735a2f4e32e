/**
 * @file
 * Environment-variable knobs shared by benches and examples.
 */

#ifndef ADAPTSIM_COMMON_ENV_HH
#define ADAPTSIM_COMMON_ENV_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace adaptsim
{

/** Read a double env var, returning @p fallback when unset/invalid. */
double envDouble(const char *name, double fallback);

/** Read an integer env var, returning @p fallback when unset/invalid. */
long envLong(const char *name, long fallback);

/** Read a string env var, returning @p fallback when unset. */
std::string envString(const char *name, const std::string &fallback);

/** ADAPTSIM_SCALE: global experiment scale multiplier (default 1.0). */
double experimentScale();

/** ADAPTSIM_DATA_DIR: shared on-disk simulation cache (default ./data). */
std::string dataDir();

/** ADAPTSIM_THREADS: evaluation threads (default hw concurrency). */
unsigned numThreads();

/** ADAPTSIM_FLUSH_EVERY: cache records buffered between incremental
 *  flushes (default 64, minimum 1). */
std::size_t flushEvery();

/** ADAPTSIM_TRACE_CACHE: interval-trace LRU capacity in traces
 *  (default 48, minimum 1). */
std::size_t traceCacheCapacity();

/** ADAPTSIM_METRICS: exit metrics summary.  Unset/"1" enables the
 *  table; "0"/"off" disables it; any other value is additionally
 *  treated as a path for a machine-readable JSON dump. */
bool metricsEnabled();

/** Path for the JSON metrics dump, empty when none requested. */
std::string metricsJsonPath();

/** ADAPTSIM_TRACE: truthy enables Chrome trace-event capture. */
bool traceEnabled();

/** ADAPTSIM_CYCLE_TRACE: truthy enables the per-cycle pipeline
 *  debug trace (first 400 cycles of each run, to stderr). */
bool cycleTraceEnabled();

/** ADAPTSIM_TRACE_FILE: trace output path
 *  (default "adaptsim_trace.json"). */
std::string traceFile();

/** ADAPTSIM_BACKEND: default performance-model backend name
 *  ("cycle" when unset; see src/sim/perf_model.hh). */
std::string backendName();

/** ADAPTSIM_CASCADE_THRESHOLD: uncertainty (estimated absolute IPC
 *  error) above which the "cascade" backend escalates a prediction
 *  to cycle-level ground truth (default 0.08; negative forces
 *  escalation of everything). */
double cascadeThreshold();

/** ADAPTSIM_SURROGATE: path to fitted learned-backend weights
 *  (saveLearnedSurrogate() format); empty when unset. */
std::string surrogatePath();

/** ADAPTSIM_GATHER_MEMO: phase-memoised gather scheduling.  Truthy
 *  (default) lets gathers recognise previously characterised phases
 *  through the persistent memo index and skip resimulation; "0"/
 *  "off" forces every phase down the full sampling path, bit-exact
 *  with the pre-memo gather. */
bool gatherMemoEnabled();

/** ADAPTSIM_GATHER_MEMO_THRESHOLD: Manhattan distance (L1-normalised
 *  BBVs, range [0,2]) below which a phase signature matches a memo
 *  entry from a previous run (default 0.25; entries recorded by the
 *  running gather itself only match at near-zero distance). */
double gatherMemoThreshold();

/** ADAPTSIM_GATHER_MEMO_TOLERANCE: relative efficiency drift between
 *  a memo entry's recorded best and the probe re-measurement above
 *  which the hit is escalated to full re-characterisation (default
 *  0.1; negative escalates every hit). */
double gatherMemoTolerance();

/** ADAPTSIM_GATHER_MEMO_PROBES: how many of the memo entry's top
 *  configurations are re-measured on a recognised phase (default 1,
 *  minimum 1). */
std::size_t gatherMemoProbes();

/** ADAPTSIM_CHIP_CORES: cores on the simulated chip (default 1 —
 *  the classic single-core model; valid 1..8).  An out-of-range or
 *  malformed value is rejected with a warning and the default is
 *  used — never silently clamped, because a chip size silently
 *  different from the one requested invalidates any co-run
 *  comparison made with it. */
unsigned chipCores();

/** ADAPTSIM_LLC_BANKS: shared-LLC bank count (default 8; valid
 *  powers of two 1..64).  Out-of-range or non-power-of-two values
 *  are rejected with a warning, keeping the default. */
unsigned llcBanks();

/** ADAPTSIM_MIX_SEED: deterministic co-run mix-generator seed
 *  (default 2010 — the paper year; valid 0..2^32-1).  Out-of-range
 *  values are rejected with a warning, keeping the default. */
std::uint32_t mixSeed();

} // namespace adaptsim

#endif // ADAPTSIM_COMMON_ENV_HH
