/**
 * @file
 * Tests of the obs subsystem: registry merge-on-read semantics,
 * histogram bucket edges, concurrent increments (exercised under
 * TSan by scripts/tier1.sh), and a golden-structure check that the
 * Chrome trace output is valid JSON made of complete events.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/serial.hh"
#include "harness/gather.hh"
#include "obs/obs.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "phase/simpoint.hh"
#include "uarch/chip.hh"
#include "workload/spec_suite.hh"

using adaptsim::obs::Histogram;
using adaptsim::obs::Registry;
using adaptsim::obs::TraceWriter;

TEST(Registry, CounterMergesAcrossThreads)
{
    Registry reg;
    auto &c = reg.counter("test/hits");
    c.add(5);

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 1000; ++i)
                c.add(1);
        });
    }
    for (auto &t : threads)
        t.join();

    // Writer threads have exited; their shards retired into the
    // registry so nothing was lost.
    EXPECT_EQ(c.value(), 4005u);
}

TEST(Registry, ConcurrentIncrementsWithConcurrentReads)
{
    Registry reg;
    auto &c = reg.counter("test/contended");

    std::atomic<bool> stop{false};
    std::thread reader([&] {
        std::uint64_t last = 0;
        while (!stop.load()) {
            const std::uint64_t now = c.value();
            EXPECT_GE(now, last);   // monotone despite merging
            last = now;
        }
    });

    std::vector<std::thread> writers;
    for (int t = 0; t < 8; ++t) {
        writers.emplace_back([&] {
            for (int i = 0; i < 10000; ++i)
                c.add(1);
        });
    }
    for (auto &t : writers)
        t.join();
    stop.store(true);
    reader.join();

    EXPECT_EQ(c.value(), 80000u);
}

TEST(Registry, HistogramBucketEdges)
{
    Registry reg;
    auto &h = reg.histogram("test/lat", {1.0, 2.0, 4.0});

    h.record(0.5);     // bucket 0 (v <= 1)
    h.record(1.0);     // bucket 0 (bounds are inclusive upper)
    h.record(1.0001);  // bucket 1
    h.record(2.0);     // bucket 1
    h.record(4.0);     // bucket 2
    h.record(5.0);     // overflow

    const auto st = h.stats();
    ASSERT_EQ(st.counts.size(), 4u);   // 3 bounds + overflow
    EXPECT_EQ(st.counts[0], 2u);
    EXPECT_EQ(st.counts[1], 2u);
    EXPECT_EQ(st.counts[2], 1u);
    EXPECT_EQ(st.counts[3], 1u);
    EXPECT_EQ(st.count, 6u);
    EXPECT_DOUBLE_EQ(st.min, 0.5);
    EXPECT_DOUBLE_EQ(st.max, 5.0);
    EXPECT_NEAR(st.sum, 0.5 + 1.0 + 1.0001 + 2.0 + 4.0 + 5.0, 1e-9);
    EXPECT_GT(st.quantile(0.5), 0.0);
    EXPECT_LE(st.quantile(0.5), st.quantile(0.95));
}

TEST(Registry, HistogramMergesAcrossThreads)
{
    Registry reg;
    auto &h = reg.histogram(
        "test/merge", Registry::exponentialBounds(1.0, 2.0, 8));

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 250; ++i)
                h.record(double(t + 1));
        });
    }
    for (auto &t : threads)
        t.join();

    const auto st = h.stats();
    EXPECT_EQ(st.count, 1000u);
    EXPECT_DOUBLE_EQ(st.min, 1.0);
    EXPECT_DOUBLE_EQ(st.max, 4.0);
    EXPECT_NEAR(st.sum, 250.0 * (1 + 2 + 3 + 4), 1e-9);
    EXPECT_NEAR(st.mean(), 2.5, 1e-9);
}

TEST(Registry, GaugeLastWriteWins)
{
    Registry reg;
    auto &g = reg.gauge("test/load");
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    g.set(0.25);
    g.set(0.75);
    EXPECT_DOUBLE_EQ(g.value(), 0.75);
}

TEST(Registry, SameNameReturnsSameHandle)
{
    Registry reg;
    EXPECT_EQ(&reg.counter("dup"), &reg.counter("dup"));
    EXPECT_EQ(&reg.histogram("duph", {1.0}),
              &reg.histogram("duph", {1.0}));
    EXPECT_EQ(reg.findCounter("dup"), &reg.counter("dup"));
    EXPECT_EQ(reg.findCounter("absent"), nullptr);
    EXPECT_EQ(reg.findHistogram("absent"), nullptr);
}

TEST(Registry, ResetZeroesButKeepsHandles)
{
    Registry reg;
    auto &c = reg.counter("r/c");
    auto &h = reg.histogram("r/h", {1.0, 2.0});
    c.add(7);
    h.record(1.5);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.stats().count, 0u);
    c.add(2);
    EXPECT_EQ(c.value(), 2u);
}

TEST(Registry, SnapshotSortedByName)
{
    Registry reg;
    reg.counter("b").add(2);
    reg.counter("a").add(1);
    reg.gauge("g").set(3.5);
    reg.histogram("h", {1.0}).record(0.5);

    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "a");
    EXPECT_EQ(snap.counters[0].second, 1u);
    EXPECT_EQ(snap.counters[1].first, "b");
    EXPECT_EQ(snap.counters[1].second, 2u);
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(snap.gauges[0].second, 3.5);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].second.count, 1u);
}

TEST(Registry, ExponentialBounds)
{
    const auto b = Registry::exponentialBounds(1e-6, 2.0, 4);
    ASSERT_EQ(b.size(), 4u);
    EXPECT_DOUBLE_EQ(b[0], 1e-6);
    EXPECT_DOUBLE_EQ(b[1], 2e-6);
    EXPECT_DOUBLE_EQ(b[2], 4e-6);
    EXPECT_DOUBLE_EQ(b[3], 8e-6);
}

namespace
{

/**
 * Minimal recursive-descent JSON validator (no external deps).
 * Returns true iff the whole input is one valid JSON value.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(std::string_view text) : s_(text) {}

    bool valid() { return value() && (ws(), pos_ == s_.size()); }

  private:
    void ws()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool lit(std::string_view word)
    {
        if (s_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool value()
    {
        ws();
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return lit("true");
          case 'f': return lit("false");
          case 'n': return lit("null");
          default: return number();
        }
    }

    bool object()
    {
        ++pos_;   // '{'
        ws();
        if (pos_ < s_.size() && s_[pos_] == '}')
            return ++pos_, true;
        for (;;) {
            ws();
            if (!string())
                return false;
            ws();
            if (pos_ >= s_.size() || s_[pos_++] != ':')
                return false;
            if (!value())
                return false;
            ws();
            if (pos_ >= s_.size())
                return false;
            if (s_[pos_] == ',') { ++pos_; continue; }
            return s_[pos_++] == '}';
        }
    }

    bool array()
    {
        ++pos_;   // '['
        ws();
        if (pos_ < s_.size() && s_[pos_] == ']')
            return ++pos_, true;
        for (;;) {
            if (!value())
                return false;
            ws();
            if (pos_ >= s_.size())
                return false;
            if (s_[pos_] == ',') { ++pos_; continue; }
            return s_[pos_++] == ']';
        }
    }

    bool string()
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size()) {
            const char c = s_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false;   // raw control char: bad escape
            if (c == '\\') {
                if (pos_ >= s_.size())
                    return false;
                const char e = s_[pos_++];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        if (pos_ >= s_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                s_[pos_++])))
                            return false;
                    }
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            }
        }
        return false;
    }

    bool number()
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' ||
                s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
};

/** All `"ph":"?"` phase letters appearing in a trace JSON. */
std::vector<char>
phases(const std::string &json)
{
    std::vector<char> out;
    std::size_t pos = 0;
    while ((pos = json.find("\"ph\":\"", pos)) != std::string::npos) {
        pos += 6;
        if (pos < json.size())
            out.push_back(json[pos]);
    }
    return out;
}

} // namespace

TEST(Trace, JsonEscape)
{
    EXPECT_EQ(adaptsim::obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(adaptsim::obs::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(adaptsim::obs::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(adaptsim::obs::jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(adaptsim::obs::jsonEscape(std::string(1, '\x01')),
              "\\u0001");
}

TEST(Trace, ChromeTraceIsValidJsonOfCompleteEvents)
{
    const std::string dir = "/tmp/adaptsim_obs_test";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/trace.json";
    std::filesystem::remove(path);

    {
        TraceWriter writer(path);
        writer.nameCurrentThread("main");

        const auto t0 = TraceWriter::Clock::now();
        writer.completeEvent(
            "outer", t0, t0 + std::chrono::microseconds(300));
        writer.completeEvent(
            "inner \"quoted\"", t0 + std::chrono::microseconds(10),
            t0 + std::chrono::microseconds(20));

        std::thread other([&] {
            writer.nameCurrentThread("worker");
            const auto s = TraceWriter::Clock::now();
            writer.completeEvent(
                "job", s, s + std::chrono::microseconds(50));
        });
        other.join();

        EXPECT_EQ(writer.eventCount(), 5u);   // 3 X + 2 M
        EXPECT_TRUE(writer.finish());
    }

    const std::string json = adaptsim::readFile(path);
    ASSERT_FALSE(json.empty());

    // Structurally valid JSON with the Chrome trace envelope.
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

    // Every event is either complete ('X') or metadata ('M') —
    // nothing needs B/E matching — and both threads appear.
    const auto ph = phases(json);
    ASSERT_EQ(ph.size(), 5u);
    int x = 0, m = 0;
    for (const char p : ph) {
        EXPECT_TRUE(p == 'X' || p == 'M') << p;
        (p == 'X' ? x : m)++;
    }
    EXPECT_EQ(x, 3);
    EXPECT_EQ(m, 2);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("worker"), std::string::npos);
}

TEST(Trace, FinishFirstCallWins)
{
    const std::string dir = "/tmp/adaptsim_obs_test";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/trace_twice.json";

    TraceWriter writer(path);
    const auto t0 = TraceWriter::Clock::now();
    writer.completeEvent("only", t0,
                         t0 + std::chrono::microseconds(5));
    EXPECT_TRUE(writer.finish());
    const auto first = adaptsim::readFile(path);

    // Later events and finishes are ignored.
    writer.completeEvent("late", t0,
                         t0 + std::chrono::microseconds(5));
    writer.finish();
    EXPECT_EQ(adaptsim::readFile(path), first);
}

#if ADAPTSIM_OBS_ENABLED

TEST(Span, RecordsIntoGlobalRegistryAndTrace)
{
    const std::string dir = "/tmp/adaptsim_obs_test";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/span_trace.json";

    TraceWriter writer(path);
    TraceWriter::setActive(&writer);
    {
        OBS_SPAN("test/span");
        OBS_COUNTER("test/span.visits").add(1);
    }
    TraceWriter::setActive(nullptr);

    auto *hist = Registry::global().findHistogram("test/span.seconds");
    ASSERT_NE(hist, nullptr);
    EXPECT_GE(hist->stats().count, 1u);
    EXPECT_GE(
        Registry::global().counter("test/span.visits").value(), 1u);

    ASSERT_TRUE(writer.finish());
    const std::string json = adaptsim::readFile(path);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("test/span"), std::string::npos);
}

#endif // ADAPTSIM_OBS_ENABLED

TEST(Registry, PerCoreLabelledCountersMergeAcrossThreads)
{
    // One `chip/core/<i>/...` label per worker thread, the way the
    // chip loop emits them: the merge must keep the labels distinct
    // and lose nothing when the writer threads retire.
    Registry reg;
    constexpr int kCores = 4;
    std::vector<std::thread> threads;
    for (int c = 0; c < kCores; ++c) {
        threads.emplace_back([&reg, c] {
            auto &ctr = reg.counter("chip/core/" +
                                    std::to_string(c) + "/quanta");
            for (int i = 0; i < 250 * (c + 1); ++i)
                ctr.add(1);
        });
    }
    for (auto &t : threads)
        t.join();

    for (int c = 0; c < kCores; ++c) {
        EXPECT_EQ(reg.counter("chip/core/" + std::to_string(c) +
                              "/quanta")
                      .value(),
                  std::uint64_t(250 * (c + 1)))
            << c;
    }
    EXPECT_EQ(reg.snapshot().counters.size(), std::size_t(kCores));
}

namespace
{

/** Timed 2-core co-run; returns the per-core committed-op counts. */
std::vector<std::uint64_t>
runTwoCoreChip()
{
    using namespace adaptsim;
    const auto a = workload::specBenchmark("gzip", 100000);
    const auto b = workload::specBenchmark("gap", 100000);
    workload::WrongPathGenerator wa(a.averageParams(),
                                    a.seed() ^ 0x57a71cULL);
    workload::WrongPathGenerator wb(b.averageParams(),
                                    b.seed() ^ 0x57a71cULL);
    uarch::Chip chip(uarch::ChipConfig::homogeneous(
                         harness::paperBaselineConfig(), 2),
                     {&wa, &wb});
    const auto ta = a.generate(0, 5000);
    const auto tb = b.generate(0, 5000);
    const auto res = chip.run({ta, tb});
    return {res.cores[0].events.committedOps,
            res.cores[1].events.committedOps};
}

} // namespace

#if ADAPTSIM_OBS_ENABLED

TEST(ChipObs, ChipRunEmitsPerCoreLabelledCounters)
{
    auto &reg = Registry::global();
    std::vector<std::uint64_t> ops_before, quanta_before;
    for (int c = 0; c < 2; ++c) {
        const std::string base = "chip/core/" + std::to_string(c);
        ops_before.push_back(
            reg.counter(base + "/committed_ops").value());
        quanta_before.push_back(
            reg.counter(base + "/quanta").value());
    }

    const auto committed = runTwoCoreChip();

    for (int c = 0; c < 2; ++c) {
        const std::string base = "chip/core/" + std::to_string(c);
        EXPECT_EQ(reg.counter(base + "/committed_ops").value() -
                      ops_before[c],
                  committed[c])
            << c;
        // 5000 µops at the default 2000-µop quantum: 3 slices.
        EXPECT_EQ(reg.counter(base + "/quanta").value() -
                      quanta_before[c],
                  3u)
            << c;
    }
}

#else // !ADAPTSIM_OBS_ENABLED

TEST(ChipObs, CompiledOutChipRunRegistersNothing)
{
    // -DADAPTSIM_OBS=OFF: the chip loop's OBS_ONLY blocks vanish, so
    // a co-run must not create any per-core counters at all.
    runTwoCoreChip();
    EXPECT_EQ(
        Registry::global().findCounter("chip/core/0/committed_ops"),
        nullptr);
    EXPECT_EQ(Registry::global().findCounter("chip/core/0/quanta"),
              nullptr);
}

#endif // ADAPTSIM_OBS_ENABLED

#if ADAPTSIM_OBS_ENABLED

TEST(WorkloadObs, SkippedUopsCountsOnlyMidSegmentStarts)
{
    using namespace adaptsim;
    const auto &skipped =
        Registry::global().counter("workload/skipped_uops");
    const auto suite = workload::specSuite(60000);
    const std::uint64_t before = skipped.value();

    // Whole-program walks stream: nothing is regenerated.
    for (const auto &wl : suite)
        (void)phase::intervalBbvs(wl, 3000);
    EXPECT_EQ(skipped.value() - before, 0u);

    // A random-access window opened mid-segment skips its offset,
    // counted once for the whole skip.
    const auto &wl = suite.front();
    const std::uint64_t offset = wl.segments().front().length / 2;
    (void)wl.generate(offset, 100);
    EXPECT_EQ(skipped.value() - before, offset);
}

#else // !ADAPTSIM_OBS_ENABLED

TEST(WorkloadObs, CompiledOutSkipRegistersNothing)
{
    using namespace adaptsim;
    const auto wl = workload::specBenchmark("gzip", 60000);
    (void)wl.generate(wl.segments().front().length / 2, 100);
    EXPECT_EQ(
        Registry::global().findCounter("workload/skipped_uops"),
        nullptr);
}

#endif // ADAPTSIM_OBS_ENABLED
