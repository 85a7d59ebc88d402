// Unit tests for src/obs: counter/gauge/histogram semantics, concurrent
// increments, snapshotJson round-trip, child-registry write-through, the
// SP_TIMED span macro, and the JSONL telemetry sink's event format.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/statusd.h"
#include "obs/telemetry.h"
#include "obs/timer.h"

namespace sp::obs {
namespace {

TEST(Counter, Increment)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, LastWriteWins)
{
    Gauge g;
    EXPECT_EQ(g.value(), 0.0);
    g.set(3.5);
    g.set(-1.25);
    EXPECT_EQ(g.value(), -1.25);
}

TEST(Histogram, MomentsAndPercentiles)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.record(static_cast<double>(i));
    EXPECT_EQ(h.count(), 100u);
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.stat.count(), 100u);
    EXPECT_DOUBLE_EQ(snap.stat.mean(), 50.5);
    EXPECT_DOUBLE_EQ(snap.stat.min(), 1.0);
    EXPECT_DOUBLE_EQ(snap.stat.max(), 100.0);
    EXPECT_DOUBLE_EQ(snap.samples.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(snap.samples.percentile(99), 99.0);
}

TEST(Histogram, ReservoirKeepsCountExactPastCap)
{
    Histogram h;
    const size_t n = Histogram::kShardSampleCap + 500;
    for (size_t i = 0; i < n; ++i)
        h.record(1.0);
    // All records land on the calling thread's shard; the retained
    // sample set is capped but the running moments stay exact.
    EXPECT_EQ(h.count(), n);
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.stat.count(), n);
    EXPECT_LE(snap.samples.count(), Histogram::kShardSampleCap);
    EXPECT_DOUBLE_EQ(snap.samples.percentile(50), 1.0);
}

TEST(Registry, FindOrCreateReturnsStableHandles)
{
    Registry reg;
    Counter &a = reg.counter("x.count");
    Counter &b = reg.counter("x.count");
    EXPECT_EQ(&a, &b);
    a.inc(7);
    EXPECT_EQ(b.value(), 7u);
    Gauge &g = reg.gauge("x.gauge");
    g.set(2.0);
    EXPECT_EQ(reg.gauge("x.gauge").value(), 2.0);
    reg.histogram("x.hist").record(1.0);
    EXPECT_EQ(reg.histogram("x.hist").count(), 1u);
}

TEST(Registry, ConcurrentIncrementsFromFourThreads)
{
    Registry reg;
    Counter &counter = reg.counter("threads.count");
    Histogram &hist = reg.histogram("threads.hist");
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                counter.inc();
                hist.record(static_cast<double>(t));
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(counter.value(),
              static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(hist.count(), static_cast<uint64_t>(kThreads * kPerThread));
    const auto snap = hist.snapshot();
    EXPECT_EQ(snap.stat.count(),
              static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_DOUBLE_EQ(snap.stat.min(), 0.0);
    EXPECT_DOUBLE_EQ(snap.stat.max(), kThreads - 1.0);
}

TEST(Registry, SnapshotJsonRoundTrip)
{
    Registry reg;
    reg.counter("fuzz.execs").inc(5000);
    reg.gauge("infer.queue_depth").set(3.0);
    for (int i = 1; i <= 4; ++i)
        reg.histogram("exec.run_us").record(static_cast<double>(i));

    const std::string json = reg.snapshotJson();
    // Structural sanity: balanced braces, one top-level object.
    int depth = 0, min_depth = 1;
    for (size_t i = 0; i < json.size(); ++i) {
        if (json[i] == '{')
            ++depth;
        if (json[i] == '}')
            --depth;
        if (i > 0 && i + 1 < json.size())
            min_depth = std::min(min_depth, depth);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_GE(min_depth, 1);

    // Every registered metric surfaces with its value.
    EXPECT_NE(json.find("\"fuzz.execs\":5000"), std::string::npos);
    EXPECT_NE(json.find("\"infer.queue_depth\":3"), std::string::npos);
    EXPECT_NE(json.find("\"exec.run_us\":{\"count\":4"),
              std::string::npos);
    EXPECT_NE(json.find("\"p95\":"), std::string::npos);
    EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
    EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
    EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
}

TEST(Registry, ChildWritesThroughToParent)
{
    Registry parent;
    parent.counter("shared.count").inc(10);  // a previous campaign
    parent.counter("parent.only").inc(1);
    Registry child(parent);

    child.counter("shared.count").inc(3);
    child.gauge("shared.level").set(2.5);
    child.histogram("shared.lat_us").record(4.0);
    child.histogram("shared.lat_us").record(6.0);

    // The child counts only its own writes; the parent sees them too.
    EXPECT_EQ(child.counter("shared.count").value(), 3u);
    EXPECT_EQ(parent.counter("shared.count").value(), 13u);
    EXPECT_EQ(parent.gauge("shared.level").value(), 2.5);
    EXPECT_EQ(child.histogram("shared.lat_us").count(), 2u);
    EXPECT_EQ(parent.histogram("shared.lat_us").count(), 2u);
    EXPECT_DOUBLE_EQ(parent.histogram("shared.lat_us").stat().mean(), 5.0);

    // A parent-only metric never shows in the child.
    std::vector<std::string> names;
    child.visit(
        [&](const std::string &name, const Counter &) {
            names.push_back(name);
        },
        [&](const std::string &name, const Gauge &) {
            names.push_back(name);
        },
        [&](const std::string &name, const Histogram &) {
            names.push_back(name);
        });
    EXPECT_EQ(names, (std::vector<std::string>{
                         "shared.count", "shared.level", "shared.lat_us"}));
    EXPECT_EQ(child.snapshotJson().find("parent.only"), std::string::npos);
    EXPECT_NE(parent.snapshotJson().find("parent.only"), std::string::npos);
}

TEST(ScopedTimer, RecordsOnlyWhenTimingEnabled)
{
    Histogram h;
    setTimingEnabled(false);
    {
        ScopedTimer span(h);
    }
    EXPECT_EQ(h.count(), 0u);
    setTimingEnabled(true);
    {
        ScopedTimer span(h);
    }
    setTimingEnabled(false);
    ASSERT_EQ(h.count(), 1u);
    EXPECT_GE(h.snapshot().stat.min(), 0.0);
}

TEST(ScopedTimer, SpTimedMacroFeedsGlobalRegistry)
{
    Histogram &hist =
        Registry::global().histogram("obs_test.sp_timed_us");
    const uint64_t before = hist.count();
    setTimingEnabled(true);
    {
        SP_TIMED("obs_test.sp_timed_us");
    }
    setTimingEnabled(false);
    EXPECT_EQ(hist.count(), before + 1);
}

TEST(Field, EscapesStringsAndFormatsScalars)
{
    std::string out;
    Field("k\"ey", "va\\l\nue").appendTo(out);
    EXPECT_EQ(out, "\"k\\\"ey\":\"va\\\\l\\nue\"");

    out.clear();
    Field("n", uint64_t{18446744073709551615ull}).appendTo(out);
    EXPECT_EQ(out, "\"n\":18446744073709551615");

    out.clear();
    Field("b", true).appendTo(out);
    EXPECT_EQ(out, "\"b\":true");

    out.clear();
    Field("i", -3).appendTo(out);
    EXPECT_EQ(out, "\"i\":-3");
}

TEST(TelemetrySink, WritesOneJsonObjectPerLine)
{
    const std::string path = "/tmp/sp_obs_test_events.jsonl";
    {
        TelemetrySink sink({.path = path, .flush_every = 1});
        sink.event("alpha", {{"x", 1}, {"name", "first"}});
        sink.event("beta", {{"ok", true}, {"rate", 0.5}});
        EXPECT_EQ(sink.eventsWritten(), 2u);
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].find("{\"ev\":\"alpha\",\"t_us\":"), 0u);
    EXPECT_NE(lines[0].find("\"x\":1"), std::string::npos);
    EXPECT_NE(lines[0].find("\"name\":\"first\""), std::string::npos);
    EXPECT_EQ(lines[0].back(), '}');
    EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos);
    EXPECT_NE(lines[1].find("\"rate\":0.5"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TelemetrySink, InstallShutdownAppendsRegistrySnapshot)
{
    const std::string path = "/tmp/sp_obs_test_snapshot.jsonl";
    installSink({.path = path});
    ASSERT_NE(sink(), nullptr);
    EXPECT_TRUE(timingEnabled());
    sink()->event("ping", {{"n", 1}});
    shutdownSink();
    setTimingEnabled(false);
    EXPECT_EQ(sink(), nullptr);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"ev\":\"ping\""), std::string::npos);
    EXPECT_EQ(lines[1].find("{\"ev\":\"registry_snapshot\""), 0u);
    EXPECT_NE(lines[1].find("\"registry\":{\"counters\":{"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TelemetrySink, ShutdownIsIdempotent)
{
    const std::string path = "/tmp/sp_obs_test_idempotent.jsonl";
    installSink({.path = path});
    ASSERT_NE(sink(), nullptr);
    shutdownSink();
    EXPECT_EQ(sink(), nullptr);
    shutdownSink();  // second shutdown: no crash, no double snapshot
    EXPECT_EQ(sink(), nullptr);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    size_t snapshots = 0;
    for (std::string line; std::getline(in, line);)
        snapshots += line.find("registry_snapshot") != std::string::npos;
    EXPECT_EQ(snapshots, 1u);
    std::remove(path.c_str());
}

TEST(TelemetrySink, EmitAfterShutdownIsSafeAndDropped)
{
    const std::string path = "/tmp/sp_obs_test_late_emit.jsonl";
    installSink({.path = path});
    TelemetrySink *stale = sink();  // emitter that cached the pointer
    ASSERT_NE(stale, nullptr);
    stale->event("before", {{"n", 1}});
    shutdownSink();
    // The retired sink object stays alive: a racing emitter that read
    // the pointer before shutdown must hit a closed sink, not freed
    // memory. The event is dropped whole.
    stale->event("after", {{"n", 2}});
    stale->flush();

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"ev\":\"before\""), std::string::npos);
    EXPECT_EQ(lines[1].find("{\"ev\":\"registry_snapshot\""), 0u);
    std::remove(path.c_str());
}

TEST(Registry, VisitWalksAllMetricFamiliesSorted)
{
    Registry reg;
    reg.counter("z.count").inc(4);
    reg.counter("a.count").inc(1);
    reg.gauge("mid.level").set(2.5);
    reg.histogram("lat.us").record(10.0);
    reg.histogram("lat.us").record(20.0);

    std::vector<std::string> counters;
    std::vector<std::string> gauges;
    std::vector<std::string> hists;
    reg.visit(
        [&](const std::string &name, const Counter &c) {
            counters.push_back(name + "=" + std::to_string(c.value()));
        },
        [&](const std::string &name, const Gauge &g) {
            gauges.push_back(name + "=" + std::to_string(g.value()));
        },
        [&](const std::string &name, const Histogram &h) {
            hists.push_back(name + "#" + std::to_string(h.count()));
        });
    ASSERT_EQ(counters.size(), 2u);
    EXPECT_EQ(counters[0], "a.count=1");  // sorted
    EXPECT_EQ(counters[1], "z.count=4");
    ASSERT_EQ(gauges.size(), 1u);
    EXPECT_EQ(gauges[0].find("mid.level=2.5"), 0u);
    ASSERT_EQ(hists.size(), 1u);
    EXPECT_EQ(hists[0], "lat.us#2");
}

TEST(Prometheus, RendersCountersGaugesAndSummaries)
{
    auto &reg = Registry::global();
    reg.counter("promtest.events.total").inc(7);
    reg.gauge("promtest.depth").set(1.5);
    for (int i = 1; i <= 100; ++i)
        reg.histogram("promtest.lat_us").record(i);

    const std::string text = renderPrometheus();
    // Dots sanitize to underscores, everything gains the sp_ prefix.
    EXPECT_NE(text.find("# TYPE sp_promtest_events_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("sp_promtest_events_total 7"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE sp_promtest_depth gauge"),
              std::string::npos);
    EXPECT_NE(text.find("sp_promtest_depth 1.5"), std::string::npos);
    EXPECT_NE(text.find("# TYPE sp_promtest_lat_us summary"),
              std::string::npos);
    EXPECT_NE(text.find("sp_promtest_lat_us{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(text.find("sp_promtest_lat_us_count 100"),
              std::string::npos);
    EXPECT_NE(text.find("sp_promtest_lat_us_sum"), std::string::npos);
}

}  // namespace
}  // namespace sp::obs
