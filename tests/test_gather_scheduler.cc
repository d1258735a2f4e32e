/**
 * @file
 * Tests of the phase-memoised gather scheduler: asymmetric live/disk
 * signature matching, index persistence, escalation policy, the
 * recognised-phase fast path, memo-off bit-exactness against the
 * frozen pre-memo gather hash, and concurrent gathers sharing one
 * scheduler (the TSan pass covers this file).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/serial.hh"
#include "decoder_fuzz.hh"
#include "harness/gather.hh"
#include "harness/gather_scheduler.hh"
#include "phase/bbv.hh"
#include "phase/simpoint.hh"
#include "workload/spec_suite.hh"

using namespace adaptsim;
using namespace adaptsim::harness;

namespace
{

/** Frozen output hash of the pre-memo gather at the geometry below
 *  (gzip, 60000 insts, 1500-inst intervals, 2 phases, 8 shared, 4
 *  neighbours, sweep on, 1000 warm).  ADAPTSIM_GATHER_MEMO=0 /
 *  MemoMode::Off must keep reproducing it bit for bit. */
constexpr std::uint64_t kGoldenHash = 0xb39c8bebd704dd53ULL;

std::uint64_t
hashGather(const std::vector<GatheredPhase> &gathered)
{
    std::uint64_t h = kFnvBasis;
    auto mix_u64 = [&h](std::uint64_t v) {
        h = fnv1a64(&v, sizeof(v), h);
    };
    auto mix_double = [&h](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        h = fnv1a64(&bits, sizeof(bits), h);
    };
    for (const auto &g : gathered) {
        mix_u64(g.evals.size());
        for (const auto &e : g.evals) {
            mix_u64(e.config.encode());
            mix_double(e.efficiency);
        }
        for (double v : g.features.basic)
            mix_double(v);
        for (double v : g.features.advanced)
            mix_double(v);
    }
    return h;
}

/** An already-normalised signature: leading entries from @p head,
 *  the rest zero.  Manhattan distances are then directly the sums
 *  of per-entry differences. */
phase::Bbv
makeSig(const std::vector<double> &head)
{
    std::vector<double> v(phase::Bbv::dimension, 0.0);
    for (std::size_t i = 0; i < head.size() && i < v.size(); ++i)
        v[i] = head[i];
    return phase::Bbv::fromValues(v, 1000);
}

/** A synthetic characterisation over a small deterministic config
 *  pool; @p bump offsets every efficiency so two calls produce
 *  distinguishable entries. */
GatheredPhase
makeGathered(double bump)
{
    GatherOptions opt;
    opt.sharedRandomConfigs = 3;
    const auto pool = sharedConfigPool(opt);
    GatheredPhase g;
    for (std::size_t i = 0; i < pool.size(); ++i)
        g.evals.push_back(
            ml::ConfigEval{pool[i], 1.0 + bump + double(i)});
    g.features.basic = {1.0, 2.0};
    g.features.advanced = {3.0, 4.0, 5.0};
    return g;
}

PhaseSpec
makeSpec(std::uint64_t start = 0)
{
    return PhaseSpec{"gzip", 60000, start, 1000, 1500};
}

class GatherSchedulerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = "/tmp/adaptsim_gather_sched_test";
        std::filesystem::remove_all(dir_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    std::string dir_;
};

} // namespace

TEST(GatherSchedulerIndex, LiveEntriesMatchOnlyExactRecurrences)
{
    GatherScheduler sched("");
    const auto spec = makeSpec();
    const auto sig = makeSig({1.0});
    sched.record(spec, sig, makeGathered(0.0));
    EXPECT_EQ(sched.size(), 1u);

    // A genuine recurrence (identical signature) hits...
    const auto hit = sched.lookup(spec, sig);
    ASSERT_TRUE(hit.has_value());
    EXPECT_LE(hit->distance, 1e-9);
    EXPECT_EQ(hit->memo.evals.size(), 4u);
    EXPECT_TRUE(sched.wouldHit(spec, sig));

    // ...but an entry recorded by this run never matches a merely
    // nearby signature, even well inside the cross-run threshold
    // (distance 0.2 < 0.25): distinct SimPoint phases can sit that
    // close.
    const auto near = makeSig({0.9, 0.1});
    EXPECT_FALSE(sched.lookup(spec, near).has_value());
    EXPECT_FALSE(sched.wouldHit(spec, near));

    // Evals never transfer across gather geometry: same workload
    // and signature, different warm length → different bucket.
    auto other = spec;
    other.warmLength = 2000;
    EXPECT_FALSE(sched.lookup(other, sig).has_value());
}

TEST_F(GatherSchedulerTest, DiskEntriesMatchWithinThreshold)
{
    std::filesystem::create_directories(dir_);
    const std::string path = dir_ + "/gather_memo.idx";
    const auto spec = makeSpec();
    const auto sig = makeSig({1.0});
    const auto gathered = makeGathered(0.5);

    {
        GatherScheduler writer(path);
        writer.record(spec, sig, gathered);
        EXPECT_TRUE(writer.save());
    }

    GatherScheduler reader(path);
    ASSERT_EQ(reader.size(), 1u);

    // Loaded entries use the full cross-run threshold: a signature
    // 0.2 away now matches (the probe + tolerance escalation is the
    // safety net for a wrong transfer)...
    const auto near = makeSig({0.9, 0.1});
    const auto hit = reader.lookup(spec, near);
    ASSERT_TRUE(hit.has_value());
    EXPECT_NEAR(hit->distance, 0.2, 1e-12);

    // ...and the memo round-tripped bit-exactly.
    ASSERT_EQ(hit->memo.evals.size(), gathered.evals.size());
    double best_eff = hit->memo.evals[0].second;
    for (std::size_t i = 0; i < gathered.evals.size(); ++i) {
        EXPECT_EQ(hit->memo.evals[i].first,
                  gathered.evals[i].config.encode());
        EXPECT_EQ(hit->memo.evals[i].second,
                  gathered.evals[i].efficiency);
        best_eff = std::max(best_eff, hit->memo.evals[i].second);
    }
    EXPECT_EQ(hit->memo.bestEfficiency, best_eff);
    EXPECT_EQ(hit->memo.features.basic, gathered.features.basic);
    EXPECT_EQ(hit->memo.features.advanced,
              gathered.features.advanced);

    // One-past-the-threshold stays a miss.
    EXPECT_FALSE(reader.lookup(spec, makeSig({0.5, 0.5})).has_value());

    // Re-recording (re-characterisation) demotes the entry to
    // live: nearby signatures stop matching again.
    reader.record(spec, sig, makeGathered(1.0));
    EXPECT_FALSE(reader.lookup(spec, near).has_value());
    EXPECT_TRUE(reader.lookup(spec, sig).has_value());
}

TEST_F(GatherSchedulerTest, CorruptIndexIsDiscarded)
{
    std::filesystem::create_directories(dir_);
    const std::string path = dir_ + "/gather_memo.idx";

    {
        GatherScheduler writer(path);
        writer.record(makeSpec(), makeSig({1.0}), makeGathered(0.0));
        ASSERT_TRUE(writer.save());
    }
    ASSERT_EQ(GatherScheduler(path).size(), 1u);
    const std::string good = readFile(path);
    ASSERT_FALSE(good.empty());

    // A version-1 (pre-chip) header, which is no longer read, with a
    // valid checksum.
    std::string v1 = good.substr(0, good.size() - 8);
    v1.replace(8, 8, std::string("\x01\0\0\0\0\0\0\0", 8));
    putU64(v1, fnv1a64(v1.data(), v1.size()));

    // Garbage, the old version, every torn write and every bit flip
    // are each discarded whole, and the index is rebuilt over them.
    const auto expect_discarded = [&](const std::string &bytes,
                                      const std::string &what) {
        ASSERT_TRUE(atomicWriteFile(path, bytes));
        GatherScheduler sched(path);
        EXPECT_EQ(sched.size(), 0u) << what;
        sched.record(makeSpec(), makeSig({1.0}), makeGathered(0.0));
        ASSERT_TRUE(sched.save());
        EXPECT_EQ(GatherScheduler(path).size(), 1u) << what;
    };
    expect_discarded("not a memo index", "garbage");
    expect_discarded(v1, "version-1 header");
    test::forEachTruncation(good, [&](const std::string &prefix) {
        expect_discarded(prefix,
                         "truncated to " + std::to_string(prefix.size()));
    });
    test::forEachBitFlip(good, [&](const std::string &bad,
                                   std::size_t at) {
        expect_discarded(bad, "bit flip in byte " + std::to_string(at));
    });
}

TEST_F(GatherSchedulerTest, RecognisedPhaseReusesCharacterisation)
{
    constexpr std::uint64_t len = 60000;
    EvalRepository repo(workload::specSuite(len), dir_, 0);
    phase::SimPointOptions sp;
    sp.intervalLength = 1500;
    sp.maxPhases = 2;
    const auto phases =
        phase::extractPhases(repo.workload("gzip"), sp);

    GatherOptions opt;
    opt.sharedRandomConfigs = 8;
    opt.localNeighbours = 4;
    opt.oneAtATimeSweep = true;
    opt.progress = false;
    opt.memo = GatherOptions::MemoMode::On;
    GatherScheduler sched(GatherScheduler::indexPathFor(repo));
    opt.scheduler = &sched;

    // Cold: every phase is novel, and the full path lands on the
    // frozen pre-memo output — memoisation must not perturb a
    // first-time gather.
    const auto first =
        gatherTrainingData(repo, phases, len, 1000, opt);
    EXPECT_EQ(hashGather(first), kGoldenHash);
    auto st = sched.stats();
    EXPECT_EQ(st.hits, 0u);
    EXPECT_EQ(st.misses, phases.size());
    EXPECT_EQ(sched.size(), phases.size());
    EXPECT_TRUE(std::filesystem::exists(sched.indexPath()));

    // Warm: every phase is a genuine recurrence.  The memo satisfies
    // the cold samples bit-exactly (an identical prefix — probes and
    // re-swept configs replace in place with the same cached
    // values); the sweep may then append configs around the overall
    // incumbent best, which the cold pass only discovered mid-sweep.
    const auto second =
        gatherTrainingData(repo, phases, len, 1000, opt);
    st = sched.stats();
    EXPECT_EQ(st.hits, phases.size());
    EXPECT_EQ(st.misses, phases.size()); // from the cold pass
    EXPECT_EQ(st.escalations, 0u);
    EXPECT_GT(st.reusedEvals, 0u);
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        const auto &cold = first[i];
        const auto &warm = second[i];
        ASSERT_GE(warm.evals.size(), cold.evals.size());
        for (std::size_t j = 0; j < cold.evals.size(); ++j) {
            EXPECT_EQ(warm.evals[j].config.encode(),
                      cold.evals[j].config.encode());
            EXPECT_EQ(warm.evals[j].efficiency,
                      cold.evals[j].efficiency);
        }
        EXPECT_EQ(warm.features.basic, cold.features.basic);
        EXPECT_EQ(warm.features.advanced, cold.features.advanced);
    }

    // Hits do not re-record, so warm gathers are a fixed point:
    // the third output is bit-identical to the second.
    const auto third =
        gatherTrainingData(repo, phases, len, 1000, opt);
    EXPECT_EQ(sched.stats().hits, 2 * phases.size());
    EXPECT_EQ(hashGather(third), hashGather(second));
}

TEST_F(GatherSchedulerTest, LowConfidenceHitsEscalate)
{
    constexpr std::uint64_t len = 60000;
    EvalRepository repo(workload::specSuite(len), dir_, 0);
    phase::SimPointOptions sp;
    sp.intervalLength = 1500;
    sp.maxPhases = 1;
    const auto phases =
        phase::extractPhases(repo.workload("eon"), sp);

    GatherOptions opt;
    opt.sharedRandomConfigs = 4;
    opt.localNeighbours = 2;
    opt.oneAtATimeSweep = false;
    opt.progress = false;
    opt.memo = GatherOptions::MemoMode::On;

    // Negative tolerance escalates every recognised phase: the
    // gather re-characterises in full instead of trusting the memo.
    {
        auto o = GatherScheduler::optionsFromEnv();
        o.tolerance = -1.0;
        GatherScheduler sched("", o);
        opt.scheduler = &sched;
        const auto cold =
            gatherTrainingData(repo, phases, len, 1000, opt);
        const auto warm =
            gatherTrainingData(repo, phases, len, 1000, opt);
        const auto st = sched.stats();
        EXPECT_EQ(st.hits, 0u);
        EXPECT_EQ(st.escalations, phases.size());
        // Full re-characterisation of the exact spec is
        // deterministic.
        EXPECT_EQ(hashGather(warm), hashGather(cold));
    }

    // So does a negative uncertainty bound.
    {
        auto o = GatherScheduler::optionsFromEnv();
        o.uncertaintyThreshold = -1.0;
        GatherScheduler sched("", o);
        opt.scheduler = &sched;
        gatherTrainingData(repo, phases, len, 1000, opt);
        gatherTrainingData(repo, phases, len, 1000, opt);
        const auto st = sched.stats();
        EXPECT_EQ(st.hits, 0u);
        EXPECT_EQ(st.escalations, phases.size());
    }
}

TEST_F(GatherSchedulerTest, MemoOffIsBitExactWithPreMemoGather)
{
    constexpr std::uint64_t len = 60000;
    EvalRepository repo(workload::specSuite(len), dir_, 0);
    phase::SimPointOptions sp;
    sp.intervalLength = 1500;
    sp.maxPhases = 2;
    const auto phases =
        phase::extractPhases(repo.workload("gzip"), sp);

    GatherOptions opt;
    opt.sharedRandomConfigs = 8;
    opt.localNeighbours = 4;
    opt.oneAtATimeSweep = true;
    opt.progress = false;
    opt.memo = GatherOptions::MemoMode::Off;

    const auto gathered =
        gatherTrainingData(repo, phases, len, 1000, opt);
    EXPECT_EQ(hashGather(gathered), kGoldenHash);
    // With memoisation off the index file is never touched.
    EXPECT_FALSE(std::filesystem::exists(
        GatherScheduler::indexPathFor(repo)));
}

TEST_F(GatherSchedulerTest, IndexWarmsAFreshSchedulerFromDisk)
{
    constexpr std::uint64_t len = 60000;
    phase::SimPointOptions sp;
    sp.intervalLength = 1500;
    sp.maxPhases = 1;

    GatherOptions opt;
    opt.sharedRandomConfigs = 4;
    opt.localNeighbours = 2;
    opt.oneAtATimeSweep = false;
    opt.progress = false;
    opt.memo = GatherOptions::MemoMode::On;

    std::uint64_t cold_hash = 0;
    {
        EvalRepository repo(workload::specSuite(len), dir_, 0);
        const auto phases =
            phase::extractPhases(repo.workload("eon"), sp);
        // No explicit scheduler: the gather builds one over the
        // repository's index file and saves it at the end.
        cold_hash = hashGather(
            gatherTrainingData(repo, phases, len, 1000, opt));
    }

    // A fresh repository + scheduler over the same directory (the
    // cross-process warm-gather case): every phase hits from disk.
    EvalRepository repo(workload::specSuite(len), dir_, 0);
    const auto phases =
        phase::extractPhases(repo.workload("eon"), sp);
    GatherScheduler sched(GatherScheduler::indexPathFor(repo));
    EXPECT_EQ(sched.size(), phases.size());
    opt.scheduler = &sched;
    const auto warm =
        gatherTrainingData(repo, phases, len, 1000, opt);
    const auto st = sched.stats();
    EXPECT_EQ(st.hits, phases.size());
    EXPECT_EQ(st.misses, 0u);
    EXPECT_EQ(hashGather(warm), cold_hash);
}

TEST_F(GatherSchedulerTest, ConcurrentGathersShareOneScheduler)
{
    constexpr std::uint64_t len = 60000;
    EvalRepository repo(workload::specSuite(len), dir_, 0);
    phase::SimPointOptions sp;
    sp.intervalLength = 1500;
    sp.maxPhases = 2;
    const auto phases =
        phase::extractPhases(repo.workload("gzip"), sp);

    GatherScheduler sched("");
    GatherOptions opt;
    opt.sharedRandomConfigs = 4;
    opt.localNeighbours = 2;
    opt.oneAtATimeSweep = false;
    opt.progress = false;
    opt.memo = GatherOptions::MemoMode::On;
    opt.scheduler = &sched;

    // Seed once so the concurrent gathers exercise the hit path as
    // well as lookup/record interleavings.
    const auto seed =
        gatherTrainingData(repo, phases, len, 1000, opt);
    const std::uint64_t seed_hash = hashGather(seed);

    std::vector<std::uint64_t> hashes(2, 0);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < hashes.size(); ++t) {
        workers.emplace_back([&, t]() {
            hashes[t] = hashGather(
                gatherTrainingData(repo, phases, len, 1000, opt));
        });
    }
    for (auto &w : workers)
        w.join();

    // Whatever the interleaving, exact-spec gathers over a warm
    // store are deterministic, and every phase of every gather was
    // classified exactly once.
    for (const auto h : hashes)
        EXPECT_EQ(h, seed_hash);
    const auto st = sched.stats();
    EXPECT_EQ(st.hits + st.misses + st.escalations,
              3 * phases.size());
    EXPECT_EQ(sched.size(), phases.size());
}
