#include "harness/repository.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "obs/obs.hh"
#include "power/metrics.hh"
#include "sim/perf_model.hh"

namespace adaptsim::harness
{

namespace fs = std::filesystem;

namespace
{

// On-disk cache format: 24-byte header + fixed 88-byte records
// (config code, backend tag, chip-mix key, seven doubles, checksum),
// everything little-endian and checksummed (see repository.hh).
constexpr char kMagic[8] = {'A', 'D', 'S', 'I', 'M', 'E', 'V', 'C'};
constexpr std::uint64_t kVersion = 3;
constexpr std::size_t kHeaderSize = 24;
constexpr std::size_t kRecordSize = 88;
constexpr std::size_t kRecordPayload = kRecordSize - 8;

std::string
encodeHeader()
{
    std::string bytes(kMagic, sizeof(kMagic));
    putU64(bytes, kVersion);
    putU64(bytes, fnv1a64(bytes.data(), 16));
    return bytes;
}

void
encodeRecord(std::string &out, const EvalKey &key,
             const EvalRecord &r)
{
    const std::size_t start = out.size();
    putU64(out, key.code);
    putU64(out, key.backendTag);
    putU64(out, key.chipKey);
    putDouble(out, r.cycles);
    putDouble(out, r.instructions);
    putDouble(out, r.seconds);
    putDouble(out, r.joules);
    putDouble(out, r.ipc);
    putDouble(out, r.watts);
    putDouble(out, r.efficiency);
    putU64(out, fnv1a64(out.data() + start, kRecordPayload));
}

EvalRecord
decodeDoubles(const char *p)
{
    EvalRecord r;
    r.cycles = getDouble(p);
    r.instructions = getDouble(p + 8);
    r.seconds = getDouble(p + 16);
    r.joules = getDouble(p + 24);
    r.ipc = getDouble(p + 32);
    r.watts = getDouble(p + 40);
    r.efficiency = getDouble(p + 48);
    return r;
}

#if ADAPTSIM_OBS_ENABLED

/** Process-wide mirror of the per-instance CacheStats counters, so
 *  the obs exit report and gather progress can source repository
 *  activity from the registry. */
struct RepoMetrics
{
    obs::Counter &hit = obs::Registry::global().counter("repo/hit");
    obs::Counter &miss =
        obs::Registry::global().counter("repo/miss");
    obs::Counter &loaded =
        obs::Registry::global().counter("repo/loaded");
    obs::Counter &flushed =
        obs::Registry::global().counter("repo/flushed");
    obs::Counter &dropped =
        obs::Registry::global().counter("repo/dropped");
};

RepoMetrics &
repoMetrics()
{
    static RepoMetrics metrics;
    return metrics;
}

#endif // ADAPTSIM_OBS_ENABLED

} // namespace

std::string
PhaseSpec::key() const
{
    std::ostringstream os;
    os << workload << "_L" << programLength << "_s" << startInst
       << "_w" << warmLength << "_d" << detailLength;
    // Chip co-runs get their own stem; solo specs (chipMix 0) keep
    // the historical name, so pre-chip stores stay addressable.
    if (chipMix != 0)
        os << "_m" << std::hex << chipMix << std::dec;
    return os.str();
}

EvalRepository::EvalRepository(std::vector<workload::Workload> suite,
                               std::string data_dir, unsigned threads,
                               std::size_t shards)
    : suite_(std::move(suite)), dataDir_(std::move(data_dir)),
      pool_(threads), flushEvery_(adaptsim::flushEvery())
{
    // Only 0 or 1: the frozen perfbench/ driver still passes 1.
    if (shards > 1)
        fatal("EvalRepository: shard count ", shards,
              " unsupported (the store has one file per phase)");
    std::error_code ec;
    fs::create_directories(dataDir_, ec);
    if (ec)
        fatal("cannot create data directory ", dataDir_, ": ",
              ec.message());
}

EvalRepository::~EvalRepository()
{
    flush();
}

const workload::Workload &
EvalRepository::workload(const std::string &name) const
{
    for (const auto &wl : suite_) {
        if (wl.name() == name)
            return wl;
    }
    fatal("unknown workload in repository: ", name);
}

std::string
EvalRepository::cachePath(const std::string &spec_key) const
{
    return dataDir_ + "/" + spec_key + ".evc";
}

std::string
EvalRepository::profilePath(const PhaseSpec &spec) const
{
    return dataDir_ + "/" + spec.key() + ".features";
}

void
EvalRepository::loadCache(const PhaseSpec &spec, PhaseCache &cache)
{
    cache.loaded = true;
    const std::string path = cachePath(spec.key());
    const std::string bytes = readFile(path);
    if (bytes.empty())
        return;
    if (bytes.size() < kHeaderSize ||
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
        warn("cache ", path,
             ": unrecognised header; ignoring file (records will "
             "be re-simulated)");
        return;
    }
    if (getU64(bytes.data() + 16) != fnv1a64(bytes.data(), 16)) {
        warn("cache ", path,
             ": corrupt header checksum; regenerating");
        return;
    }
    const std::uint64_t version = getU64(bytes.data() + 8);
    if (version != kVersion) {
        warn("cache ", path, ": format version ", version,
             " (expected ", kVersion, "); regenerating");
        return;
    }

    std::size_t off = kHeaderSize;
    std::size_t bad = 0;
    std::size_t count = 0;
    while (off + kRecordSize <= bytes.size()) {
        const char *p = bytes.data() + off;
        off += kRecordSize;
        if (getU64(p + kRecordPayload) !=
            fnv1a64(p, kRecordPayload)) {
            ++bad;
            continue;
        }
        const EvalKey key{getU64(p + 8), getU64(p), getU64(p + 16)};
        if (cache.records.emplace(key, decodeDoubles(p + 24)).second)
            ++count;
    }
    const std::size_t tail = bytes.size() - off;
    if (bad > 0 || tail > 0) {
        warn("cache ", path, ": dropped ", bad,
             " corrupt record(s) and ", tail,
             " torn tail byte(s); they will be re-simulated");
        dropped_ += bad + (tail > 0 ? 1 : 0);
        OBS_ONLY(repoMetrics().dropped.add(bad + (tail > 0 ? 1 : 0));)
    }
    loaded_ += count;
    OBS_ONLY(repoMetrics().loaded.add(count);)
    cache.haveFile = true;
}

EvalRepository::PhaseCache &
EvalRepository::cacheFor(const PhaseSpec &spec)
{
    auto &cache = caches_[spec.key()];
    if (!cache.loaded)
        loadCache(spec, cache);
    return cache;
}

EvalRecord
EvalRepository::simulate(const PhaseSpec &spec,
                         const space::Configuration &config,
                         const sim::PerfModel &backend,
                         const sim::PerfModel *&producer,
                         double *uncertainty)
{
    const auto &wl = workload(spec.workload);
    // Each simulation gets its own wrong-path stream (the generator
    // is stateful); seeding is canonical so results are reproducible.
    workload::WrongPathGenerator wrong_path(wl.averageParams(),
                                            wl.seed() ^ 0x57a71cULL);
    const auto cc = uarch::CoreConfig::fromConfiguration(config);
    const auto session = backend.makeSession(cc, wrong_path);

    const std::uint64_t warm_start =
        spec.startInst >= spec.warmLength ?
            spec.startInst - spec.warmLength :
            0;
    if (spec.warmLength > 0) {
        const auto warm =
            traceCache_.get(wl, warm_start, spec.warmLength);
        session->warm(*warm);
    }
    const auto trace =
        traceCache_.get(wl, spec.startInst, spec.detailLength);
    const auto result = backend.run(*session, *trace);
    const auto m = session->metricsFor(result);
    producer = session->lastProducer() ? session->lastProducer()
                                       : &backend;
    if (uncertainty)
        *uncertainty = session->lastUncertainty();

    EvalRecord r;
    r.cycles = m.cycles;
    r.instructions = m.instructions;
    r.seconds = m.seconds;
    r.joules = m.joules;
    r.ipc = m.ipc;
    r.watts = m.watts;
    r.efficiency = m.efficiency;
    return r;
}

EvalRecord
EvalRepository::evaluate(const PhaseSpec &spec,
                         const space::Configuration &config,
                         const sim::PerfModel *backend)
{
    const sim::PerfModel &model =
        backend ? *backend : sim::defaultPerfModel();
    return evaluateImpl(spec, config, model, nullptr, nullptr);
}

EvalRepository::ProbeResult
EvalRepository::evaluateProbe(const PhaseSpec &spec,
                              const space::Configuration &config,
                              const sim::PerfModel *backend)
{
    const sim::PerfModel &model =
        backend ? *backend : sim::defaultPerfModel();
    ProbeResult probe;
    bool cached = false;
    probe.record = evaluateImpl(spec, config, model,
                                &probe.uncertainty, &cached);
    probe.cached = cached;
    return probe;
}

EvalRecord
EvalRepository::evaluateImpl(const PhaseSpec &spec,
                             const space::Configuration &config,
                             const sim::PerfModel &model,
                             double *uncertainty, bool *cached)
{
    const std::uint64_t code = config.encode();
    // Probe every tag the backend accepts, best fidelity first (a
    // cached cycle-level record satisfies a cascade query outright).
    const auto tags = model.cacheLookupTags();
    {
        MutexLock lock(mutex_);
        auto &cache = cacheFor(spec);
        for (const std::uint64_t tag : tags) {
            const auto it = cache.records.find(
                EvalKey{tag, code, spec.chipMix});
            if (it != cache.records.end()) {
                ++hits_;
                OBS_ONLY(repoMetrics().hit.add(1);)
                if (cached)
                    *cached = true;
                return it->second;
            }
        }
    }

    const auto t0 = std::chrono::steady_clock::now();
    EvalRecord r;
    const sim::PerfModel *producer = &model;
    {
        OBS_SPAN("repo/simulate");
        r = simulate(spec, config, model, producer, uncertainty);
    }
    const double secs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    OBS_ONLY(repoMetrics().miss.add(1);)

    // The record is stored — and accounted — under the model that
    // actually produced it, so a cascade escalation yields a real
    // cycle-level record other backends can reuse.
    const EvalKey key{producer->cacheTag(), code, spec.chipMix};
    MutexLock lock(mutex_);
    simSeconds_ += secs;
    ++simulated_;
    ++simulatedByBackend_[producer->name()];
    auto &cache = cacheFor(spec);
    // Two threads may race to simulate the same config (simulation
    // is deterministic, so both results are identical); only the
    // first insert is queued for persistence.
    const auto [it, inserted] = cache.records.emplace(key, r);
    const EvalRecord stored = it->second;
    if (!inserted)
        return stored;

    cache.unsaved.emplace_back(key, r);
    if (cache.unsaved.size() < flushEvery_)
        return stored;

    if (!cache.haveFile) {
        // First write of this phase's file: take the slow path.
        flushLocked();
        return stored;
    }

    // Fast path: the phase has a valid file, so its batch can be
    // appended without the global lock.  Swap the batch out under
    // mutex_, do the I/O under the phase's file mutex only, then
    // relock to update counters.  Other phase caches keep evaluating
    // meanwhile.
    std::vector<std::pair<EvalKey, EvalRecord>> batch;
    batch.swap(cache.unsaved);
    Mutex &file_mutex = cache.fileMutex;
    const std::string path = cachePath(spec.key());
    lock.unlock();

    std::string bytes;
    for (const auto &[ek, rec] : batch)
        encodeRecord(bytes, ek, rec);
    bool ok;
    {
        MutexLock file_lock(file_mutex);
        ok = appendFileSync(path, bytes);
    }

    lock.lock();
    if (ok) {
        flushed_ += batch.size();
        OBS_ONLY(repoMetrics().flushed.add(batch.size());)
    } else {
        warn("cannot persist cache ", path);
        // Re-queue so a later flush (or the destructor) retries.
        cache.unsaved.insert(cache.unsaved.end(), batch.begin(),
                             batch.end());
    }
    return stored;
}

std::vector<EvalRecord>
EvalRepository::evaluateBatch(
    const PhaseSpec &spec,
    const std::vector<space::Configuration> &configs,
    const sim::PerfModel *backend, std::size_t refine_budget)
{
    // Concurrent gathers may share one repository; the pool runs one
    // batch at a time, so callers queue here rather than racing into
    // parallelFor.  The backend is resolved once so every evaluation
    // of the batch uses the same model even if the env changes.
    const sim::PerfModel &model =
        backend ? *backend : sim::defaultPerfModel();
    MutexLock batch(batchMutex_);
    std::vector<EvalRecord> out(configs.size());
    pool_.parallelFor(configs.size(), [&](std::size_t i) {
        out[i] = evaluate(spec, configs[i], &model);
    });

    // Near-frontier refinement: a policy backend (the cascade) can
    // name a ground-truth model and pick the batch points worth a
    // full-fidelity re-evaluation — the ones an adaptivity search
    // would act on.  Ground-truth records land in the cache under
    // the cycle tag, so cacheLookupTags() serves them ever after.
    const sim::PerfModel *truth =
        refine_budget > 0 ? model.groundTruthModel() : nullptr;
    if (truth) {
        std::vector<double> eff(out.size());
        for (std::size_t i = 0; i < out.size(); ++i)
            eff[i] = out[i].efficiency;
        std::vector<std::size_t> refine;
        model.selectForRefinement(eff, refine_budget, refine);
        if (!refine.empty()) {
            pool_.parallelFor(refine.size(), [&](std::size_t i) {
                out[refine[i]] =
                    evaluate(spec, configs[refine[i]], truth);
            });
        }
    }
    return out;
}

ProfileRecord
EvalRepository::profile(const PhaseSpec &spec,
                        const sim::PerfModel *backend)
{
    // The counter bank is fed by per-cycle observer callbacks, so an
    // analytical backend cannot drive it; profiling falls back to
    // the cycle-level reference model in that case.  Profile caches
    // are therefore always observer-fidelity and carry no tag.
    const sim::PerfModel &requested =
        backend ? *backend : sim::defaultPerfModel();
    const sim::PerfModel &model = requested.supportsObservers()
                                      ? requested
                                      : sim::perfModel("cycle");
    if (&model != &requested) {
        MutexLock lock(mutex_);
        if (profileWarned_.insert(requested.name()).second)
            warn("backend \"", requested.name(),
                 "\" cannot drive profiling counters; using \"",
                 model.name(),
                 "\" for its profiling runs (warned once)");
    }
    {
        MutexLock lock(mutex_);
        const auto it = profiles_.find(spec.key());
        if (it != profiles_.end()) {
            ++hits_;
            OBS_ONLY(repoMetrics().hit.add(1);)
            return it->second;
        }
    }

    // Try the disk cache.  A truncated or stale file (torn write,
    // feature-set change) must not be accepted just because *some*
    // doubles parsed: both vectors have to match the expected
    // dimensions exactly, or we fall back to re-simulation.
    {
        std::ifstream in(profilePath(spec));
        if (in) {
            ProfileRecord rec;
            auto read_line = [&](std::vector<double> &v) {
                std::string line;
                if (!std::getline(in, line))
                    return false;
                std::istringstream ls(line);
                double x;
                while (ls >> x)
                    v.push_back(x);
                return !v.empty();
            };
            const bool parsed =
                read_line(rec.basic) && read_line(rec.advanced);
            const std::size_t want_basic = counters::featureDimension(
                counters::FeatureSet::Basic);
            const std::size_t want_advanced =
                counters::featureDimension(
                    counters::FeatureSet::Advanced);
            if (parsed && rec.basic.size() == want_basic &&
                rec.advanced.size() == want_advanced) {
                MutexLock lock(mutex_);
                ++hits_;
                OBS_ONLY(repoMetrics().hit.add(1);)
                profiles_[spec.key()] = rec;
                return rec;
            }
            if (parsed) {
                warn("profile cache ", profilePath(spec),
                     ": feature dimensions ", rec.basic.size(), "/",
                     rec.advanced.size(), " (expected ", want_basic,
                     "/", want_advanced,
                     "); re-simulating the profile");
            }
        }
    }

    // Run the profiling configuration with the counter bank.
    OBS_SPAN("repo/profile");
    OBS_ONLY(repoMetrics().miss.add(1);)
    const auto t0 = std::chrono::steady_clock::now();
    const auto &wl = workload(spec.workload);
    workload::WrongPathGenerator wrong_path(wl.averageParams(),
                                            wl.seed() ^ 0x57a71cULL);
    const auto profiling = space::Configuration::profiling();
    const auto cc = uarch::CoreConfig::fromConfiguration(profiling);
    const auto session = model.makeSession(cc, wrong_path);

    const std::uint64_t warm_start =
        spec.startInst >= spec.warmLength ?
            spec.startInst - spec.warmLength :
            0;
    if (spec.warmLength > 0)
        session->warm(*traceCache_.get(wl, warm_start,
                                       spec.warmLength));

    counters::CounterBank bank(cc);
    const auto trace =
        traceCache_.get(wl, spec.startInst, spec.detailLength);
    const auto result = model.run(*session, *trace, &bank);
    bank.finalise(result.events);

    ProfileRecord rec;
    rec.basic = counters::assembleFeatures(
        bank, counters::FeatureSet::Basic);
    rec.advanced = counters::assembleFeatures(
        bank, counters::FeatureSet::Advanced);
    const double secs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();

    // Persist atomically; 17 significant digits round-trip doubles
    // exactly through the decimal text format.
    {
        std::ostringstream os;
        os.precision(17);
        for (double v : rec.basic)
            os << v << ' ';
        os << '\n';
        for (double v : rec.advanced)
            os << v << ' ';
        os << '\n';
        if (!atomicWriteFile(profilePath(spec), os.str()))
            warn("cannot persist profile for ", spec.key());
    }

    MutexLock lock(mutex_);
    profiles_[spec.key()] = rec;
    ++simulated_;
    ++simulatedByBackend_[model.name()];
    simSeconds_ += secs;
    return rec;
}

std::vector<std::pair<std::uint64_t, EvalRecord>>
EvalRepository::records(const PhaseSpec &spec,
                        std::uint64_t backendTag)
{
    MutexLock lock(mutex_);
    auto &cache = cacheFor(spec);
    std::vector<std::pair<std::uint64_t, EvalRecord>> out;
    for (const auto &[key, r] : cache.records) {
        if (key.backendTag == backendTag &&
            key.chipKey == spec.chipMix)
            out.emplace_back(key.code, r);
    }
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    return out;
}

void
EvalRepository::flush()
{
    MutexLock lock(mutex_);
    flushLocked();
}

void
EvalRepository::flushLocked()
{
    for (auto &[key, cache] : caches_) {
        if (cache.unsaved.empty())
            continue;
        // A phase with a valid file gets a checksummed append; one
        // without is created atomically with everything it holds.
        std::string bytes;
        std::size_t written = 0;
        if (cache.haveFile) {
            for (const auto &[ek, r] : cache.unsaved)
                encodeRecord(bytes, ek, r);
            written = cache.unsaved.size();
        } else {
            bytes = encodeHeader();
            for (const auto &[ek, r] : cache.records)
                encodeRecord(bytes, ek, r);
            written = cache.records.size();
        }
        const std::string path = cachePath(key);
        bool ok;
        {
            MutexLock file_lock(cache.fileMutex);
            ok = cache.haveFile ? appendFileSync(path, bytes)
                                : atomicWriteFile(path, bytes);
        }
        if (!ok) {
            warn("cannot persist cache ", path);
            continue;
        }
        cache.haveFile = true;
        flushed_ += written;
        OBS_ONLY(repoMetrics().flushed.add(written);)
        cache.unsaved.clear();
    }
}

CacheStats
EvalRepository::stats() const
{
    MutexLock lock(mutex_);
    CacheStats s;
    s.hits = hits_;
    s.misses = simulated_;
    s.loaded = loaded_;
    s.flushed = flushed_;
    s.dropped = dropped_;
    s.simSeconds = simSeconds_;
    const auto tc = traceCache_.stats();
    s.traceHits = tc.hits;
    s.traceMisses = tc.misses;
    s.traceEvictions = tc.evictions;
    s.backendEvals.assign(simulatedByBackend_.begin(),
                          simulatedByBackend_.end());
    return s;
}

std::string
EvalRepository::statsSummary() const
{
    const CacheStats s = stats();
    std::ostringstream os;
    os << s.hits << " hits, " << s.misses << " simulated ("
       << std::fixed << std::setprecision(1) << s.simSeconds
       << "s), " << s.loaded << " loaded, " << s.flushed
       << " flushed";
    if (s.dropped > 0)
        os << ", " << s.dropped << " dropped";
    if (s.traceHits + s.traceMisses > 0) {
        os << "; traces " << s.traceHits << " replayed / "
           << s.traceMisses << " generated";
        if (s.traceEvictions > 0)
            os << " (" << s.traceEvictions << " evicted)";
    }
    // Per-backend split, shown once more than one fidelity (or a
    // non-default backend) produced results this process.
    if (!s.backendEvals.empty() &&
        (s.backendEvals.size() > 1 ||
         s.backendEvals.front().first != "cycle")) {
        os << "; backends";
        for (const auto &[name, n] : s.backendEvals)
            os << ' ' << name << '=' << n;
    }
    return os.str();
}

void
EvalRepository::setFlushEvery(std::size_t n)
{
    MutexLock lock(mutex_);
    flushEvery_ = std::max<std::size_t>(1, n);
}

} // namespace adaptsim::harness
