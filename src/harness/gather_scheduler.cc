#include "harness/gather_scheduler.hh"

#include <limits>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "harness/gather.hh"
#include "obs/obs.hh"

namespace adaptsim::harness
{

namespace
{

// Index layout: header, per-bucket key + serialized detector +
// entries, trailing FNV-1a checksum over everything before it.
constexpr std::uint64_t kIndexMagic = 0x41445349'4d474d58ULL;
constexpr std::uint64_t kIndexVersion = 2;

constexpr std::size_t kNpos = ~std::size_t(0);

// Within-run matches must be genuine recurrences: entries recorded
// by the running gather only match (far) below any inter-phase
// signature distance, while disk-loaded entries use the full
// threshold (see the file comment in the header).
constexpr double kExactEpsilon = 1e-9;

void
putSpec(std::string &out, const PhaseSpec &spec)
{
    putString(out, spec.workload);
    putU64(out, spec.programLength);
    putU64(out, spec.startInst);
    putU64(out, spec.warmLength);
    putU64(out, spec.detailLength);
    putU64(out, spec.chipMix);
}

bool
getSpec(const std::string &in, std::size_t &off, PhaseSpec &spec)
{
    if (!getString(in, off, spec.workload))
        return false;
    if (off + 40 > in.size())
        return false;
    spec.programLength = getU64(in.data() + off);
    spec.startInst = getU64(in.data() + off + 8);
    spec.warmLength = getU64(in.data() + off + 16);
    spec.detailLength = getU64(in.data() + off + 24);
    spec.chipMix = getU64(in.data() + off + 32);
    off += 40;
    return true;
}

void
putDoubles(std::string &out, const std::vector<double> &v)
{
    putU64(out, v.size());
    for (double d : v)
        putDouble(out, d);
}

bool
getDoubles(const std::string &in, std::size_t &off,
           std::vector<double> &v)
{
    if (off + 8 > in.size())
        return false;
    const std::uint64_t n = getU64(in.data() + off);
    off += 8;
    if (n > (in.size() - off) / 8)
        return false;
    v.resize(n);
    for (std::uint64_t i = 0; i < n; ++i, off += 8)
        v[i] = getDouble(in.data() + off);
    return true;
}

} // namespace

GatherScheduler::Options
GatherScheduler::optionsFromEnv()
{
    Options opt;
    opt.threshold = gatherMemoThreshold();
    opt.tolerance = gatherMemoTolerance();
    opt.uncertaintyThreshold = cascadeThreshold();
    opt.probes = gatherMemoProbes();
    return opt;
}

GatherScheduler::GatherScheduler(std::string index_path,
                                 Options options)
    : path_(std::move(index_path)), opt_(options)
{
    load();
}

std::string
GatherScheduler::indexPathFor(const EvalRepository &repo)
{
    return repo.dataDir() + "/gather_memo.idx";
}

std::string
GatherScheduler::bucketKey(const PhaseSpec &spec)
{
    std::string key = spec.workload + "|w" +
                      std::to_string(spec.warmLength) + "|d" +
                      std::to_string(spec.detailLength);
    // Chip co-runs memoise separately: characterisations gathered
    // under interference must never answer solo lookups (or other
    // mixes).  Solo specs keep the historical key.
    if (spec.chipMix != 0)
        key += "|m" + std::to_string(spec.chipMix);
    return key;
}

std::size_t
GatherScheduler::matchIn(const Bucket &b, const phase::Bbv &sig,
                         double *distance) const
{
    const auto best = b.detector.bestMatch(sig);
    if (!best)
        return kNpos;
    const bool usable =
        best->distance <= kExactEpsilon ||
        (b.fromDisk[best->phaseId] && best->distance <= opt_.threshold);
    if (!usable)
        return kNpos;
    if (distance)
        *distance = best->distance;
    return best->phaseId;
}

std::optional<GatherScheduler::Lookup>
GatherScheduler::lookup(const PhaseSpec &spec,
                        const phase::Bbv &sig) const
{
    MutexLock lock(mutex_);
    const auto it = buckets_.find(bucketKey(spec));
    if (it == buckets_.end())
        return std::nullopt;
    Lookup hit;
    const std::size_t id = matchIn(it->second, sig, &hit.distance);
    if (id == kNpos)
        return std::nullopt;
    hit.memo = it->second.entries[id];
    return hit;
}

bool
GatherScheduler::wouldHit(const PhaseSpec &spec,
                          const phase::Bbv &sig) const
{
    MutexLock lock(mutex_);
    const auto it = buckets_.find(bucketKey(spec));
    return it != buckets_.end() &&
           matchIn(it->second, sig, nullptr) != kNpos;
}

void
GatherScheduler::record(const PhaseSpec &spec, const phase::Bbv &sig,
                        const GatheredPhase &gathered)
{
    Memo memo;
    memo.spec = spec;
    memo.evals.reserve(gathered.evals.size());
    memo.bestEfficiency = -std::numeric_limits<double>::max();
    for (const auto &e : gathered.evals) {
        const std::uint64_t code = e.config.encode();
        memo.evals.emplace_back(code, e.efficiency);
        if (e.efficiency > memo.bestEfficiency) {
            memo.bestEfficiency = e.efficiency;
            memo.bestCode = code;
        }
    }
    memo.features = gathered.features;

    MutexLock lock(mutex_);
    // Slot allocation matches at the exact-recurrence epsilon, NOT
    // the cross-run lookup threshold: distinct phases of one
    // workload can sit inside that threshold, and allocating at it
    // would merge them into one slot that then thrashes (every
    // gather escalates the pair and re-records over the other's
    // characterisation).  matchIn() is unaffected — bestMatch() is
    // threshold-free and the lookup thresholds are applied there.
    Bucket &b =
        buckets_
            .try_emplace(bucketKey(spec),
                         Bucket{phase::OnlinePhaseDetector(
                                    kExactEpsilon,
                                    opt_.maxPhasesPerBucket),
                                {},
                                {}})
            .first->second;
    const auto obs = b.detector.observe(sig);
    if (obs.newPhase) {
        b.entries.push_back(std::move(memo));
        b.fromDisk.push_back(false);
    } else {
        // Re-characterisation of a recurring phase, or replacement
        // of the nearest entry once the signature table is full.
        memo.hits = b.entries[obs.phaseId].hits;
        b.entries[obs.phaseId] = std::move(memo);
        b.fromDisk[obs.phaseId] = false;
    }
}

void
GatherScheduler::noteHit(std::uint64_t reused_evals)
{
    {
        MutexLock lock(mutex_);
        ++stats_.hits;
        stats_.reusedEvals += reused_evals;
    }
    OBS_ONLY(OBS_COUNTER("gather/memo/hit").add(1);)
    OBS_ONLY(OBS_COUNTER("gather/memo/reused_evals")
                 .add(reused_evals);)
}

void
GatherScheduler::noteMiss()
{
    {
        MutexLock lock(mutex_);
        ++stats_.misses;
    }
    OBS_ONLY(OBS_COUNTER("gather/memo/miss").add(1);)
}

void
GatherScheduler::noteEscalation()
{
    {
        MutexLock lock(mutex_);
        ++stats_.escalations;
    }
    OBS_ONLY(OBS_COUNTER("gather/memo/escalated").add(1);)
}

GatherScheduler::Stats
GatherScheduler::stats() const
{
    MutexLock lock(mutex_);
    return stats_;
}

std::size_t
GatherScheduler::size() const
{
    MutexLock lock(mutex_);
    std::size_t n = 0;
    for (const auto &[key, b] : buckets_)
        n += b.entries.size();
    return n;
}

std::string
GatherScheduler::serializeLocked() const
{
    std::string out;
    putU64(out, kIndexMagic);
    putU64(out, kIndexVersion);
    putU64(out, buckets_.size());
    for (const auto &[key, b] : buckets_) {
        putString(out, key);
        putString(out, b.detector.serialize());
        putU64(out, b.entries.size());
        for (const auto &m : b.entries) {
            putSpec(out, m.spec);
            putU64(out, m.bestCode);
            putDouble(out, m.bestEfficiency);
            putU64(out, m.hits);
            putU64(out, m.evals.size());
            for (const auto &[code, eff] : m.evals) {
                putU64(out, code);
                putDouble(out, eff);
            }
            putDoubles(out, m.features.basic);
            putDoubles(out, m.features.advanced);
        }
    }
    putU64(out, fnv1a64(out.data(), out.size()));
    return out;
}

bool
GatherScheduler::deserialize(const std::string &bytes)
{
    if (bytes.size() < 32)
        return false;
    const std::size_t body = bytes.size() - 8;
    if (getU64(bytes.data() + body) != fnv1a64(bytes.data(), body))
        return false;
    if (getU64(bytes.data()) != kIndexMagic)
        return false;
    if (getU64(bytes.data() + 8) != kIndexVersion)
        return false;

    std::map<std::string, Bucket> loaded;
    const std::uint64_t n_buckets = getU64(bytes.data() + 16);
    std::size_t off = 24;
    for (std::uint64_t bi = 0; bi < n_buckets; ++bi) {
        std::string key, det_bytes;
        if (!getString(bytes, off, key) ||
            !getString(bytes, off, det_bytes))
            return false;
        auto det = phase::OnlinePhaseDetector::deserialize(det_bytes);
        if (!det)
            return false;
        Bucket b{std::move(*det), {}, {}};
        if (off + 8 > body)
            return false;
        const std::uint64_t n_entries = getU64(bytes.data() + off);
        off += 8;
        if (n_entries != b.detector.numPhases())
            return false;
        for (std::uint64_t ei = 0; ei < n_entries; ++ei) {
            Memo m;
            if (!getSpec(bytes, off, m.spec))
                return false;
            if (off + 32 > body)
                return false;
            m.bestCode = getU64(bytes.data() + off);
            m.bestEfficiency = getDouble(bytes.data() + off + 8);
            m.hits = getU64(bytes.data() + off + 16);
            const std::uint64_t n_evals =
                getU64(bytes.data() + off + 24);
            off += 32;
            if (n_evals > (body - off) / 16)
                return false;
            m.evals.reserve(n_evals);
            for (std::uint64_t k = 0; k < n_evals; ++k, off += 16) {
                m.evals.emplace_back(
                    getU64(bytes.data() + off),
                    getDouble(bytes.data() + off + 8));
            }
            if (!getDoubles(bytes, off, m.features.basic) ||
                !getDoubles(bytes, off, m.features.advanced))
                return false;
            b.entries.push_back(std::move(m));
            b.fromDisk.push_back(true);
        }
        loaded.emplace(std::move(key), std::move(b));
    }
    if (off != body)
        return false;
    buckets_ = std::move(loaded);
    return true;
}

void
GatherScheduler::load()
{
    if (path_.empty())
        return;
    const std::string bytes = readFile(path_);
    if (bytes.empty())
        return;
    MutexLock lock(mutex_);
    if (!deserialize(bytes)) {
        warn("gather memo index ", path_,
             " is corrupt or unreadable; starting empty");
        buckets_.clear();
    }
}

bool
GatherScheduler::save() const
{
    if (path_.empty())
        return true;
    std::string bytes;
    {
        MutexLock lock(mutex_);
        bytes = serializeLocked();
    }
    if (!atomicWriteFile(path_, bytes)) {
        warn("cannot persist gather memo index ", path_);
        return false;
    }
    return true;
}

} // namespace adaptsim::harness
