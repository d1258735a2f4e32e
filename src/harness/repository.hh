/**
 * @file
 * Disk-cached simulation repository.
 *
 * Every (phase, configuration) simulation result is memoised in
 * memory and persisted under ADAPTSIM_DATA_DIR, so the expensive
 * Sec. V-C training-data gather runs once and every bench reuses it.
 * Profiling runs (with the counter bank attached) are cached the same
 * way as serialized feature vectors.
 *
 * Evaluations run through a pluggable performance-model backend
 * (src/sim); results of different fidelities never mix, because the
 * backend's cache tag is part of every in-memory key and on-disk
 * record.
 *
 * On-disk format: one `<key>.evc` file per PhaseSpec — a 24-byte
 * header (8-byte magic "ADSIMEVC", little-endian u64 version 3,
 * FNV-1a checksum of the first 16 bytes) followed by fixed-size
 * 88-byte records: config code (u64), backend cache tag (u64),
 * chip-mix key (u64; 0 = solo single-core), the seven EvalRecord
 * doubles bit-exact, and a per-record FNV-1a checksum.  A file is
 * created by atomic rename and extended by append+fsync, so
 * completed records survive a `kill -9` at any point; a torn tail or
 * corrupt record fails its checksum and is simply re-simulated.  A
 * file with a bad header or any other version is ignored and
 * atomically replaced on the next flush.  Each phase appends under
 * its own file lock, so concurrent writers to different phases never
 * serialize on one flush.
 */

#ifndef ADAPTSIM_HARNESS_REPOSITORY_HH
#define ADAPTSIM_HARNESS_REPOSITORY_HH

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sync.hh"
#include "counters/feature_vector.hh"
#include "harness/thread_pool.hh"
#include "space/configuration.hh"
#include "workload/trace_cache.hh"
#include "workload/workload.hh"

namespace adaptsim::sim
{
class PerfModel;
}

namespace adaptsim::harness
{

/** Identity of one simulated interval of one workload. */
struct PhaseSpec
{
    std::string workload;      ///< program name
    std::uint64_t programLength = 0;
    std::uint64_t startInst = 0;
    std::uint64_t warmLength = 0;
    std::uint64_t detailLength = 0;

    /** Chip co-run identity (workload::CoRunMix::key() combined with
     *  uarch::ChipConfig::key()); 0 means a solo single-core phase,
     *  which is every spec that predates the chip model.  Nonzero
     *  mixes get their own cache-file stem, so solo stores keep
     *  their existing file names. */
    std::uint64_t chipMix = 0;

    /** Stable cache-file stem for this spec. */
    std::string key() const;
};

/** Cached outcome of one (phase, config) simulation. */
struct EvalRecord
{
    double cycles = 0.0;
    double instructions = 0.0;
    double seconds = 0.0;
    double joules = 0.0;
    double ipc = 0.0;
    double watts = 0.0;
    double efficiency = 0.0;   ///< ips³/W
};

/** Feature vectors from one profiling run. */
struct ProfileRecord
{
    std::vector<double> basic;
    std::vector<double> advanced;
};

/** Cache identity of one evaluation: which backend produced the
 *  result for which configuration.  Different fidelities of the
 *  same configuration are distinct entries. */
struct EvalKey
{
    std::uint64_t backendTag = 0;   ///< sim::PerfModel::cacheTag()
    std::uint64_t code = 0;         ///< space::Configuration::encode()
    std::uint64_t chipKey = 0;      ///< chip-mix identity; 0 = solo

    bool operator==(const EvalKey &) const = default;
};

/** Mixing hash so (tag, code, chip) tuples spread over the table
 *  even when codes collide across backends or mixes. */
struct EvalKeyHash
{
    std::size_t operator()(const EvalKey &k) const
    {
        std::uint64_t h =
            k.code + 0x9e3779b97f4a7c15ULL * (k.backendTag + 1);
        h += 0xc2b2ae3d27d4eb4fULL * k.chipKey;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        return static_cast<std::size_t>(h);
    }
};

/** Running counters of repository activity (see stats()).  Every
 *  increment is mirrored into the process-wide obs registry under
 *  repo/hit, repo/miss, repo/loaded, repo/flushed and repo/dropped
 *  (plus the repo/simulate.seconds span histogram), so the exit
 *  metrics report and traces see the same numbers. */
struct CacheStats
{
    std::uint64_t hits = 0;        ///< served from memory/disk cache
    std::uint64_t misses = 0;      ///< simulations actually run
    std::uint64_t loaded = 0;      ///< records read from disk
    std::uint64_t flushed = 0;     ///< records persisted this process
    std::uint64_t dropped = 0;     ///< malformed/corrupt records skipped
    double simSeconds = 0.0;       ///< wall time spent simulating

    std::uint64_t traceHits = 0;       ///< interval traces replayed
    std::uint64_t traceMisses = 0;     ///< interval traces generated
    std::uint64_t traceEvictions = 0;  ///< traces dropped by the LRU

    /** Simulations actually run, split by backend name (sorted).
     *  Mirrored into the obs registry as backend/<name>/evals. */
    std::vector<std::pair<std::string, std::uint64_t>> backendEvals;
};

/** Memoising simulation evaluator shared by all benches. */
class EvalRepository
{
  public:
    /**
     * @param suite the workload suite (looked up by name).
     * @param data_dir on-disk cache directory (created if absent).
     * @param threads evaluation parallelism.
     * @param shards on-disk files per phase; must be 0 or 1.
     */
    EvalRepository(std::vector<workload::Workload> suite,
                   std::string data_dir, unsigned threads,
                   std::size_t shards = 0);

    ~EvalRepository();

    /**
     * Evaluate one configuration on one phase (cached).
     * @param backend performance model to simulate with; nullptr
     *   selects the ADAPTSIM_BACKEND default.  Results are cached
     *   per backend (fidelities never mix): lookups probe the
     *   backend's cacheLookupTags() in order, and fresh records are
     *   stored under the tag of the model that actually produced
     *   them (a cascade escalation stores a cycle-level record).
     */
    EvalRecord evaluate(const PhaseSpec &spec,
                        const space::Configuration &config,
                        const sim::PerfModel *backend = nullptr)
        ADAPTSIM_EXCLUDES(mutex_);

    /** Evaluate many configurations on one phase, in parallel.
     *  When the backend names a groundTruthModel(), the points it
     *  selectForRefinement()s are afterwards re-evaluated at ground
     *  truth and replaced in the returned vector; @p refine_budget
     *  caps those ground-truth runs (0 skips refinement outright —
     *  used for batches the caller already trusts, e.g. memoised
     *  gathers). */
    std::vector<EvalRecord>
    evaluateBatch(const PhaseSpec &spec,
                  const std::vector<space::Configuration> &configs,
                  const sim::PerfModel *backend = nullptr,
                  std::size_t refine_budget = ~std::size_t(0))
        ADAPTSIM_EXCLUDES(batchMutex_, mutex_);

    /** Outcome of evaluateProbe(): the record plus how it was made. */
    struct ProbeResult
    {
        EvalRecord record;
        /** Producer's lastUncertainty() when freshly simulated;
         *  0 for cache hits (cached records are already settled). */
        double uncertainty = 0.0;
        bool cached = false;
    };

    /**
     * evaluate() that also reports whether the answer came from the
     * cache and, when freshly simulated, the producing session's
     * confidence (sim::CoreSession::lastUncertainty()).  The gather
     * scheduler uses this to decide whether a memoised phase needs
     * re-characterisation.
     */
    ProbeResult evaluateProbe(const PhaseSpec &spec,
                              const space::Configuration &config,
                              const sim::PerfModel *backend = nullptr)
        ADAPTSIM_EXCLUDES(mutex_);

    /**
     * Profiling-configuration run with counters (cached).  The
     * counter bank needs per-cycle observer callbacks, so a
     * @p backend without observer support (e.g. "interval") falls
     * back to the cycle-level model with a warning.
     */
    ProfileRecord profile(const PhaseSpec &spec,
                          const sim::PerfModel *backend = nullptr)
        ADAPTSIM_EXCLUDES(mutex_);

    /** Persist any unsaved results now (incremental flushing also
     *  runs whenever any single phase accumulates flushEvery()
     *  unsaved records; see ADAPTSIM_FLUSH_EVERY). */
    void flush() ADAPTSIM_EXCLUDES(mutex_);

    const workload::Workload &workload(const std::string &name) const;

    std::uint64_t
    simulationsRun() const
    {
        MutexLock lock(mutex_);
        return simulated_;
    }

    std::uint64_t
    cacheHits() const
    {
        MutexLock lock(mutex_);
        return hits_;
    }

    /** Snapshot of the activity counters. */
    CacheStats stats() const;

    /** One-line human-readable stats() rendering for progress. */
    std::string statsSummary() const;

    /** Records buffered per phase between incremental flushes
     *  (default from env). */
    std::size_t
    flushEvery() const
    {
        MutexLock lock(mutex_);
        return flushEvery_;
    }

    void setFlushEvery(std::size_t n) ADAPTSIM_EXCLUDES(mutex_);

    /** The interval-trace cache shared by all worker threads. */
    workload::TraceCache &traceCache() { return traceCache_; }

    /** Root directory of the on-disk store (fixed at construction);
     *  sibling indices (the gather phase-memo) live alongside it. */
    const std::string &dataDir() const { return dataDir_; }

    /** All cached records of one phase produced under one backend
     *  tag, sorted by configuration code (surrogate training data
     *  harvest; loads the phase's disk cache if needed). */
    std::vector<std::pair<std::uint64_t, EvalRecord>>
    records(const PhaseSpec &spec, std::uint64_t backendTag)
        ADAPTSIM_EXCLUDES(mutex_);

  private:
    struct PhaseCache
    {
        std::unordered_map<EvalKey, EvalRecord, EvalKeyHash> records;
        /** Records awaiting persistence to the phase's file. */
        std::vector<std::pair<EvalKey, EvalRecord>> unsaved;
        /** A valid current-format file exists (append mode). */
        bool haveFile = false;
        bool loaded = false;
        /** File-append lock: concurrent writers flushing different
         *  phases never serialize on one another.  Always acquired
         *  after mutex_ or with mutex_ dropped (the append fast
         *  path), never the other way around. */
        Mutex fileMutex;
    };

    /** Run the real simulation through @p backend (no caching).
     *  @p producer is set to the model that actually produced the
     *  result (== &backend except for policy backends like the
     *  cascade, which may delegate to another fidelity).  A non-null
     *  @p uncertainty receives the session's lastUncertainty(). */
    EvalRecord simulate(const PhaseSpec &spec,
                        const space::Configuration &config,
                        const sim::PerfModel &backend,
                        const sim::PerfModel *&producer,
                        double *uncertainty = nullptr)
        ADAPTSIM_EXCLUDES(mutex_);

    /** Shared body of evaluate()/evaluateProbe(): cached lookup or
     *  simulate-and-persist, with optional probe outputs. */
    EvalRecord evaluateImpl(const PhaseSpec &spec,
                            const space::Configuration &config,
                            const sim::PerfModel &model,
                            double *uncertainty, bool *cached)
        ADAPTSIM_EXCLUDES(mutex_);

    PhaseCache &cacheFor(const PhaseSpec &spec)
        ADAPTSIM_REQUIRES(mutex_);
    void loadCache(const PhaseSpec &spec, PhaseCache &cache)
        ADAPTSIM_REQUIRES(mutex_);
    void flushLocked() ADAPTSIM_REQUIRES(mutex_);
    std::string cachePath(const std::string &spec_key) const;
    std::string profilePath(const PhaseSpec &spec) const;

    std::vector<workload::Workload> suite_;
    std::string dataDir_;
    ThreadPool pool_;

    /** One trace per (phase × {warm, detail}) regardless of how
     *  many configurations replay it (thread-safe internally). */
    workload::TraceCache traceCache_;

    /** Serializes evaluateBatch calls from distinct user threads so
     *  concurrent gathers can share one repository. */
    Mutex batchMutex_ ADAPTSIM_ACQUIRED_BEFORE(mutex_);

    mutable Mutex mutex_;
    std::unordered_map<std::string, PhaseCache> caches_
        ADAPTSIM_GUARDED_BY(mutex_);
    std::unordered_map<std::string, ProfileRecord> profiles_
        ADAPTSIM_GUARDED_BY(mutex_);
    /** Backends already warned about missing observer support, so
     *  profile() nags once per backend rather than per call. */
    std::set<std::string> profileWarned_ ADAPTSIM_GUARDED_BY(mutex_);
    std::size_t flushEvery_ ADAPTSIM_GUARDED_BY(mutex_);
    std::map<std::string, std::uint64_t> simulatedByBackend_
        ADAPTSIM_GUARDED_BY(mutex_);
    std::uint64_t simulated_ ADAPTSIM_GUARDED_BY(mutex_) = 0;
    std::uint64_t hits_ ADAPTSIM_GUARDED_BY(mutex_) = 0;
    std::uint64_t loaded_ ADAPTSIM_GUARDED_BY(mutex_) = 0;
    std::uint64_t flushed_ ADAPTSIM_GUARDED_BY(mutex_) = 0;
    std::uint64_t dropped_ ADAPTSIM_GUARDED_BY(mutex_) = 0;
    double simSeconds_ ADAPTSIM_GUARDED_BY(mutex_) = 0.0;
};

} // namespace adaptsim::harness

#endif // ADAPTSIM_HARNESS_REPOSITORY_HH
