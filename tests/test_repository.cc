/**
 * @file
 * Tests of the disk-cached evaluation repository.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <regex>
#include <thread>

#include "common/rng.hh"
#include "common/serial.hh"
#include "decoder_fuzz.hh"
#include "counters/feature_vector.hh"
#include "harness/gather.hh"
#include "harness/repository.hh"
#include "sim/perf_model.hh"
#include "space/sampling.hh"
#include "workload/spec_suite.hh"

using namespace adaptsim;
using namespace adaptsim::harness;

namespace
{

class RepositoryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = "/tmp/adaptsim_repo_test";
        std::filesystem::remove_all(dir_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    PhaseSpec
    spec() const
    {
        return PhaseSpec{"gzip", 60000, 20000, 2000, 1500};
    }

    std::string
    binPath() const
    {
        return dir_ + "/" + spec().key() + ".evc";
    }

    std::string dir_;
};

bool
bitIdentical(const EvalRecord &a, const EvalRecord &b)
{
    return std::memcmp(&a, &b, sizeof(EvalRecord)) == 0;
}

bool
bitIdentical(const ProfileRecord &a, const ProfileRecord &b)
{
    const auto same = [](const std::vector<double> &x,
                         const std::vector<double> &y) {
        return x.size() == y.size() &&
               std::memcmp(x.data(), y.data(),
                           x.size() * sizeof(double)) == 0;
    };
    return same(a.basic, b.basic) && same(a.advanced, b.advanced);
}

} // namespace

TEST_F(RepositoryTest, EvaluateProducesSaneMetrics)
{
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    const auto r = repo.evaluate(spec(),
                                 paperBaselineConfig());
    EXPECT_EQ(r.instructions, 1500.0);
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.watts, 0.1);
    EXPECT_GT(r.efficiency, 0.0);
    EXPECT_EQ(repo.simulationsRun(), 1u);
}

TEST_F(RepositoryTest, SecondEvaluateHitsCache)
{
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    const auto a = repo.evaluate(spec(), paperBaselineConfig());
    const auto b = repo.evaluate(spec(), paperBaselineConfig());
    EXPECT_EQ(repo.simulationsRun(), 1u);
    EXPECT_EQ(repo.cacheHits(), 1u);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.efficiency, b.efficiency);
}

TEST_F(RepositoryTest, CacheSurvivesRestart)
{
    EvalRecord first;
    {
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        first = repo.evaluate(spec(), paperBaselineConfig());
        repo.flush();
    }
    {
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        const auto again =
            repo.evaluate(spec(), paperBaselineConfig());
        EXPECT_EQ(repo.simulationsRun(), 0u);
        EXPECT_EQ(repo.cacheHits(), 1u);
        EXPECT_NEAR(again.efficiency, first.efficiency,
                    first.efficiency * 1e-9);
    }
}

TEST_F(RepositoryTest, BatchMatchesIndividual)
{
    EvalRepository repo(workload::specSuite(60000), dir_, 2);
    Rng rng(5);
    const auto configs = space::uniformRandomSet(rng, 6);
    const auto batch = repo.evaluateBatch(spec(), configs);
    ASSERT_EQ(batch.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto single = repo.evaluate(spec(), configs[i]);
        EXPECT_EQ(single.cycles, batch[i].cycles);
    }
}

TEST_F(RepositoryTest, ProfileIsCachedInMemoryAndOnDisk)
{
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    const auto a = repo.profile(spec());
    EXPECT_FALSE(a.basic.empty());
    EXPECT_FALSE(a.advanced.empty());
    const auto sims = repo.simulationsRun();
    const auto b = repo.profile(spec());
    EXPECT_EQ(repo.simulationsRun(), sims);   // memoised
    EXPECT_EQ(a.advanced, b.advanced);

    EvalRepository repo2(workload::specSuite(60000), dir_, 0);
    const auto c = repo2.profile(spec());
    EXPECT_EQ(repo2.simulationsRun(), 0u);    // from disk
    ASSERT_EQ(c.advanced.size(), a.advanced.size());
    for (std::size_t i = 0; i < c.advanced.size(); ++i)
        EXPECT_NEAR(c.advanced[i], a.advanced[i], 1e-6);
}

TEST_F(RepositoryTest, DistinctSpecsAreDistinctEntries)
{
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    auto other = spec();
    other.startInst = 30000;
    (void)repo.evaluate(spec(), paperBaselineConfig());
    (void)repo.evaluate(other, paperBaselineConfig());
    EXPECT_EQ(repo.simulationsRun(), 2u);
}

TEST_F(RepositoryTest, CacheHitIsBitIdenticalToFreshSimulation)
{
    EvalRecord fresh;
    {
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        fresh = repo.evaluate(spec(), paperBaselineConfig());
    }   // destructor flushes
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    const auto cached = repo.evaluate(spec(), paperBaselineConfig());
    EXPECT_EQ(repo.simulationsRun(), 0u);
    EXPECT_EQ(repo.cacheHits(), 1u);
    EXPECT_TRUE(bitIdentical(fresh, cached));
}

TEST_F(RepositoryTest, IncrementalFlushPersistsBeforeShutdown)
{
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    repo.setFlushEvery(1);
    const auto fresh = repo.evaluate(spec(), paperBaselineConfig());

    // With the first repository still alive (never explicitly
    // flushed), a second one already sees the record on disk.
    EvalRepository other(workload::specSuite(60000), dir_, 0);
    const auto cached =
        other.evaluate(spec(), paperBaselineConfig());
    EXPECT_EQ(other.simulationsRun(), 0u);
    EXPECT_TRUE(bitIdentical(fresh, cached));
    EXPECT_GE(repo.stats().flushed, 1u);
}

TEST_F(RepositoryTest, InterruptedFlushKeepsCompletedRecords)
{
    Rng rng(11);
    const auto configs = space::uniformRandomSet(rng, 3);
    std::vector<EvalRecord> fresh;
    {
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        for (const auto &cfg : configs)
            fresh.push_back(repo.evaluate(spec(), cfg));
        repo.flush();
    }

    // Simulate a gather killed mid-write: a full-size record of
    // garbage (checksum cannot match), a torn partial append, and
    // an orphaned temp file from an interrupted atomic rewrite.
    ASSERT_TRUE(appendFileSync(binPath(), std::string(88, '\xab')));
    ASSERT_TRUE(appendFileSync(binPath(), "torn-tail"));
    ASSERT_TRUE(atomicWriteFile(binPath() + ".orphan", "junk"));
    std::ofstream(binPath() + ".tmp") << "partial";

    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto cached = repo.evaluate(spec(), configs[i]);
        EXPECT_TRUE(bitIdentical(fresh[i], cached));
    }
    EXPECT_EQ(repo.simulationsRun(), 0u);
    const auto s = repo.stats();
    EXPECT_EQ(s.loaded, configs.size());
    EXPECT_EQ(s.dropped, 2u);   // corrupt record + torn tail
}

TEST_F(RepositoryTest, DamagedRecordsAreNeverServed)
{
    // Fuzz the .evc decoder with a three-record store: every torn
    // write and every single-bit flip must load exactly the records
    // whose bytes are intact and re-simulate only the others.
    const auto suite = workload::specSuite(60000);
    const PhaseSpec small{"gzip", 60000, 20000, 0, 200};
    Rng rng(53);
    const auto configs =
        space::dedupe(space::uniformRandomSet(rng, 3));
    ASSERT_EQ(configs.size(), 3u);
    std::vector<EvalRecord> fresh;
    {
        EvalRepository repo(suite, dir_, 1);
        for (const auto &cfg : configs)
            fresh.push_back(repo.evaluate(small, cfg));
    }
    const std::string path = dir_ + "/" + small.key() + ".evc";
    const std::string good = readFile(path);
    constexpr std::size_t kHeader = 24, kRecord = 88;
    ASSERT_EQ(good.size(), kHeader + 3 * kRecord);

    const auto expect_recovery = [&](const std::string &bytes,
                                     std::size_t intact,
                                     const std::string &what) {
        ASSERT_TRUE(atomicWriteFile(path, bytes));
        EvalRepository repo(suite, dir_, 1);
        for (std::size_t i = 0; i < configs.size(); ++i)
            EXPECT_TRUE(bitIdentical(repo.evaluate(small, configs[i]),
                                     fresh[i]))
                << what;
        EXPECT_EQ(repo.stats().loaded, intact) << what;
        EXPECT_EQ(repo.simulationsRun(), configs.size() - intact)
            << what;
    };
    test::forEachTruncation(good, [&](const std::string &prefix) {
        const std::size_t n = prefix.size();
        expect_recovery(prefix, n < kHeader ? 0 : (n - kHeader) / kRecord,
                        "truncated to " + std::to_string(n));
    });
    test::forEachBitFlip(good, [&](const std::string &bad,
                                   std::size_t at) {
        expect_recovery(bad, at < kHeader ? 0 : 2,
                        "bit flip in byte " + std::to_string(at));
    });
}

TEST_F(RepositoryTest, ForeignTagRecordsLoadButNeverAnswer)
{
    // A store may hold records under a tag the timing model does not
    // own: the retired learned and interval models' tags.  They must
    // load intact and stay harvestable, but a query is answered only
    // by a record under the model's own tag.
    for (const std::uint64_t foreign_tag :
         {0x4c4541524e4d444cULL, 0x494e5456414c5953ULL}) {
        std::filesystem::remove_all(dir_);
        EvalRecord fresh;
        {
            EvalRepository repo(workload::specSuite(60000), dir_, 0);
            fresh = repo.evaluate(spec(), paperBaselineConfig(),
                                  &sim::perfModel("cycle"));
        }
        std::string bytes = readFile(binPath());
        ASSERT_EQ(bytes.size(), 24u + 88u);
        std::string tag;
        putU64(tag, foreign_tag);
        bytes.replace(24 + 8, 8, tag);
        std::string sum;
        putU64(sum, fnv1a64(bytes.data() + 24, 80));
        bytes.replace(24 + 80, 8, sum);
        ASSERT_TRUE(atomicWriteFile(binPath(), bytes));

        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        EXPECT_TRUE(bitIdentical(
            repo.evaluate(spec(), paperBaselineConfig(),
                          &sim::perfModel("cycle")),
            fresh));
        EXPECT_EQ(repo.simulationsRun(), 1u);
        EXPECT_EQ(repo.cacheHits(), 0u);
        const auto s = repo.stats();
        EXPECT_EQ(s.loaded, 1u);
        EXPECT_EQ(s.dropped, 0u);
        EXPECT_EQ(repo.records(spec(), foreign_tag).size(), 1u);
    }
}

TEST_F(RepositoryTest, FlushEveryIsAccountedPerPhase)
{
    const auto &cycle = sim::perfModel("cycle");
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    repo.setFlushEvery(2);
    PhaseSpec other = spec();
    other.startInst += 5000;

    Rng rng(43);
    const auto configs =
        space::dedupe(space::uniformRandomSet(rng, 5));
    ASSERT_GE(configs.size(), 5u);

    // Two unsaved records split across two phases must NOT trigger
    // a flush — the threshold is per phase, not global.
    (void)repo.evaluate(spec(), configs[0], &cycle);
    (void)repo.evaluate(other, configs[1], &cycle);
    EXPECT_EQ(repo.stats().flushed, 0u);

    // A second record on the first phase reaches its threshold; the
    // first flush persists everything pending (it must also create
    // the files), so all three records hit disk.
    (void)repo.evaluate(spec(), configs[2], &cycle);
    EXPECT_EQ(repo.stats().flushed, 3u);

    // With the files in place, the append fast path flushes only the
    // phase that filled up.
    (void)repo.evaluate(spec(), configs[3], &cycle);
    EXPECT_EQ(repo.stats().flushed, 3u);
    (void)repo.evaluate(spec(), configs[4], &cycle);
    EXPECT_EQ(repo.stats().flushed, 5u);
}

TEST_F(RepositoryTest, CorruptHeaderRegeneratesCache)
{
    {
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        (void)repo.evaluate(spec(), paperBaselineConfig());
    }
    {
        // Clobber the magic; the file must be ignored, not trusted.
        std::fstream f(binPath(),
                       std::ios::in | std::ios::out |
                           std::ios::binary);
        f.put('X');
    }
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    const auto r = repo.evaluate(spec(), paperBaselineConfig());
    EXPECT_EQ(repo.simulationsRun(), 1u);
    EXPECT_GT(r.efficiency, 0.0);

    // The regenerated file is valid again after flush.
    repo.flush();
    EvalRepository repo2(workload::specSuite(60000), dir_, 0);
    (void)repo2.evaluate(spec(), paperBaselineConfig());
    EXPECT_EQ(repo2.simulationsRun(), 0u);
}

TEST_F(RepositoryTest, ConcurrentGathersShareOneRepository)
{
    EvalRepository repo(workload::specSuite(60000), dir_, 2);
    repo.setFlushEvery(4);
    Rng rng(7);
    const auto configs = space::uniformRandomSet(rng, 8);
    auto other = spec();
    other.startInst = 30000;

    std::vector<EvalRecord> r1, r2;
    std::thread t1(
        [&] { r1 = repo.evaluateBatch(spec(), configs); });
    std::thread t2(
        [&] { r2 = repo.evaluateBatch(other, configs); });
    t1.join();
    t2.join();

    ASSERT_EQ(r1.size(), configs.size());
    ASSERT_EQ(r2.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_GT(r1[i].efficiency, 0.0);
        EXPECT_GT(r2[i].efficiency, 0.0);
    }

    // Re-running either batch is now pure cache hits, bit-exact.
    const auto again = repo.evaluateBatch(spec(), configs);
    const auto sims = repo.simulationsRun();
    for (std::size_t i = 0; i < configs.size(); ++i)
        EXPECT_TRUE(bitIdentical(again[i], r1[i]));
    EXPECT_EQ(repo.simulationsRun(), sims);
}

TEST_F(RepositoryTest, TraceCacheReplayIsBitExact)
{
    Rng rng(13);
    const auto configs = space::uniformRandomSet(rng, 4);

    // Shared-cache repo: from the second config on, both the warm
    // and detail traces replay from the trace cache.
    EvalRepository cached(workload::specSuite(60000),
                          dir_ + "/cached", 0);
    // Thrashing repo: a capacity-1 trace cache means the detail
    // interval evicts the warm interval every simulation, so each
    // evaluation regenerates both traces — the cache-off baseline.
    setenv("ADAPTSIM_TRACE_CACHE", "1", 1);
    EvalRepository regen(workload::specSuite(60000),
                         dir_ + "/regen", 0);
    unsetenv("ADAPTSIM_TRACE_CACHE");
    ASSERT_EQ(regen.traceCache().capacity(), 1u);

    for (const auto &cfg : configs) {
        const auto a = cached.evaluate(spec(), cfg);
        const auto b = regen.evaluate(spec(), cfg);
        EXPECT_TRUE(bitIdentical(a, b));
    }
    // Sanity: the shared cache actually replayed, the thrashing
    // cache actually regenerated.
    EXPECT_GT(cached.stats().traceHits, 0u);
    EXPECT_EQ(regen.stats().traceHits, 0u);
    EXPECT_GT(regen.stats().traceMisses,
              cached.stats().traceMisses);
}

TEST_F(RepositoryTest, TruncatedProfileIsReSimulated)
{
    ProfileRecord good;
    {
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        good = repo.profile(spec());
    }
    ASSERT_EQ(good.basic.size(), counters::featureDimension(
                                     counters::FeatureSet::Basic));
    ASSERT_EQ(good.advanced.size(),
              counters::featureDimension(
                  counters::FeatureSet::Advanced));

    // Truncate the advanced line: some doubles still parse, so the
    // old loader would have accepted a short vector and poisoned
    // every later feature assembly.
    const std::string path = dir_ + "/" + spec().key() + ".features";
    {
        std::ifstream in(path);
        std::string basic_line;
        ASSERT_TRUE(std::getline(in, basic_line));
        std::ofstream out(path, std::ios::trunc);
        out << basic_line << "\n1.0 2.0 3.0\n";
    }

    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    const auto again = repo.profile(spec());
    EXPECT_EQ(repo.simulationsRun(), 1u);   // fell back, re-simulated
    ASSERT_EQ(again.advanced.size(), good.advanced.size());
    for (std::size_t i = 0; i < good.advanced.size(); ++i)
        EXPECT_NEAR(again.advanced[i], good.advanced[i], 1e-6);

    // The re-simulation repaired the on-disk record.
    EvalRepository repo2(workload::specSuite(60000), dir_, 0);
    (void)repo2.profile(spec());
    EXPECT_EQ(repo2.simulationsRun(), 0u);
}

TEST_F(RepositoryTest, TornProfileIsNeverServed)
{
    // Fuzz the .features decoder with every torn write of a real
    // profile file: no strict prefix may be served — not even one
    // that keeps every token and loses only the final line end —
    // and the re-simulated profile answers bit-identically.
    const std::vector<workload::Workload> suite{
        workload::specBenchmark("gzip", 60000)};
    const PhaseSpec small{"gzip", 60000, 20000, 0, 200};
    ProfileRecord good;
    {
        EvalRepository repo(suite, dir_, 1);
        good = repo.profile(small);
    }
    const std::string path = dir_ + "/" + small.key() + ".features";
    const std::string bytes = readFile(path);
    ASSERT_FALSE(bytes.empty());
    test::forEachTruncation(bytes, [&](const std::string &prefix) {
        ASSERT_TRUE(atomicWriteFile(path, prefix));
        EvalRepository repo(suite, dir_, 1);
        EXPECT_TRUE(bitIdentical(repo.profile(small), good))
            << "truncated to " << prefix.size();
        EXPECT_EQ(repo.simulationsRun(), 1u)
            << "truncated to " << prefix.size();
    });

    // The whole file, as the re-simulation rewrote it, is served.
    EXPECT_EQ(readFile(path), bytes);
    EvalRepository repo(suite, dir_, 1);
    EXPECT_TRUE(bitIdentical(repo.profile(small), good));
    EXPECT_EQ(repo.simulationsRun(), 0u);
}

TEST_F(RepositoryTest, UnknownWorkloadIsFatal)
{
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    PhaseSpec bad{"nonexistent", 60000, 0, 100, 100};
    EXPECT_EXIT((void)repo.evaluate(bad, paperBaselineConfig()),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST_F(RepositoryTest, OtherFormatVersionIsRegenerated)
{
    // A well-formed header of any version but the current one (here
    // the retired version 2) is ignored, and the next flush replaces
    // the file with a current-format one.
    std::string old("ADSIMEVC", 8);
    putU64(old, 2);
    putU64(old, fnv1a64(old.data(), 16));
    std::filesystem::create_directories(dir_);
    ASSERT_TRUE(atomicWriteFile(binPath(), old));

    EvalRecord fresh;
    {
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        fresh = repo.evaluate(spec(), paperBaselineConfig());
        EXPECT_EQ(repo.simulationsRun(), 1u);
    }
    const auto bytes = readFile(binPath());
    ASSERT_GE(bytes.size(), 24u);
    EXPECT_EQ(getU64(bytes.data() + 8), 3u);

    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    EXPECT_TRUE(bitIdentical(
        repo.evaluate(spec(), paperBaselineConfig()), fresh));
    EXPECT_EQ(repo.simulationsRun(), 0u);
}

TEST_F(RepositoryTest, MoreThanOneFilePerPhaseIsFatal)
{
    EvalRepository one(workload::specSuite(60000), dir_, 0, 1);
    EXPECT_EXIT(EvalRepository(workload::specSuite(60000), dir_, 0, 2),
                ::testing::ExitedWithCode(1), "shard count 2");
}

TEST_F(RepositoryTest, ChipMixRecordsNeverAnswerSoloLookups)
{
    // The same workload window under a chip mix is a different cache
    // identity: its own file stem, its own chip key in every record.
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    PhaseSpec solo = spec();
    PhaseSpec mixed = spec();
    mixed.chipMix = 0xfeedULL;
    EXPECT_NE(solo.key(), mixed.key());

    const auto cfg = paperBaselineConfig();
    const auto a = repo.evaluate(solo, cfg);
    EXPECT_EQ(repo.simulationsRun(), 1u);
    const auto b = repo.evaluate(mixed, cfg);
    EXPECT_EQ(repo.simulationsRun(), 2u);
    EXPECT_TRUE(bitIdentical(a, b));   // same trace, solo timing

    // Each spec now hits its own entry without cross-talk.
    repo.evaluate(solo, cfg);
    repo.evaluate(mixed, cfg);
    EXPECT_EQ(repo.simulationsRun(), 2u);
    EXPECT_EQ(repo.cacheHits(), 2u);
}

TEST_F(RepositoryTest, RecordsHarvestIsFilteredAndSorted)
{
    EvalRepository repo(workload::specSuite(60000), dir_, 2);
    Rng rng(29);
    const auto configs = space::uniformRandomSet(rng, 5);
    (void)repo.evaluateBatch(spec(), configs,
                             &sim::perfModel("cycle"));

    const auto harvest = repo.records(spec(), 0);
    ASSERT_EQ(harvest.size(), configs.size());
    for (std::size_t i = 1; i < harvest.size(); ++i)
        EXPECT_LT(harvest[i - 1].first, harvest[i].first);
    for (const auto &[code, record] : harvest)
        EXPECT_GT(record.efficiency, 0.0);

    // The harvest also reads through the disk cache of a fresh
    // repository (the trainer's cold-start path).
    repo.flush();
    EvalRepository repo2(workload::specSuite(60000), dir_, 0);
    const auto cold = repo2.records(spec(), 0);
    ASSERT_EQ(cold.size(), harvest.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        EXPECT_EQ(cold[i].first, harvest[i].first);
        EXPECT_TRUE(bitIdentical(cold[i].second, harvest[i].second));
    }
}

TEST_F(RepositoryTest, ZeroLengthDetailWindowYieldsFiniteRecord)
{
    // Regression: a zero-instruction detail window (degenerate phase
    // boundary) must produce a well-defined all-finite record, not
    // NaNs from 0/0.
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    PhaseSpec empty_spec{"gzip", 60000, 20000, 2000, 0};
    const auto r = repo.evaluate(empty_spec, paperBaselineConfig());
    EXPECT_EQ(r.instructions, 0.0);
    for (const double v : {r.cycles, r.seconds, r.joules, r.ipc,
                           r.watts, r.efficiency}) {
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_GE(v, 0.0);
    }
}

TEST(CommittedData, LoadsWholeAtTheCurrentFormat)
{
    // The committed data/ store seeds every bench.  A format change
    // that stopped it loading would silently re-simulate all of it,
    // so this fails instead.  Work on a copy so no test can touch
    // tracked files.
    namespace fs = std::filesystem;
    const std::string dir = "/tmp/adaptsim_committed_data_test";
    fs::remove_all(dir);
    fs::copy(ADAPTSIM_SOURCE_DATA_DIR, dir, fs::copy_options::recursive);

    const std::regex stem_re("(.+)_L([0-9]+)_s([0-9]+)_w([0-9]+)_d([0-9]+)");
    std::vector<PhaseSpec> stores, profiles;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string ext = entry.path().extension();
        if (ext != ".evc" && ext != ".features")
            continue;
        const std::string stem = entry.path().stem();
        std::smatch m;
        ASSERT_TRUE(std::regex_match(stem, m, stem_re)) << stem;
        const PhaseSpec spec{m[1], std::stoull(m[2]), std::stoull(m[3]),
                             std::stoull(m[4]), std::stoull(m[5])};
        ASSERT_EQ(spec.key(), stem);
        (ext == ".evc" ? stores : profiles).push_back(spec);
    }
    EXPECT_EQ(stores.size(), 346u);
    EXPECT_EQ(profiles.size(), 285u);

    EvalRepository repo(workload::specSuite(400000), dir, 1);
    std::size_t solo_cycle = 0;
    for (const auto &spec : stores)
        solo_cycle +=
            repo.records(spec, sim::PerfModel::kCacheTag).size();
    const auto stats = repo.stats();
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(stats.loaded, 50800u);
    // Every record is a solo (chip key 0) cycle-level (tag 0) one.
    EXPECT_EQ(solo_cycle, stats.loaded);

    // Every profile parses at the expected feature dimensions; one
    // that did not would be re-simulated.
    for (const auto &spec : profiles)
        (void)repo.profile(spec);
    EXPECT_EQ(repo.simulationsRun(), 0u);
    fs::remove_all(dir);
}
