// Tests for the campaign timeline observatory: TimelineRecorder
// sampling/ring/delta-encoded JSONL, workers=1
// artifact bit-reproducibility, merge-grid alignment under workers=4
// (the TSan'd sampling/scrape contract), the /timeline endpoint, and
// the differential compare half (A vs A ⇒ zero deltas; synthetic
// regressions are caught).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/compare.h"
#include "fuzz/campaign.h"
#include "kernel/subsystems.h"
#include "mutate/localizer.h"
#include "obs/covmap.h"
#include "obs/metrics.h"
#include "obs/statusd.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace sp::obs {
namespace {

const kern::Kernel &
testKernel()
{
    static kern::Kernel kernel = [] {
        kern::KernelGenParams params;
        params.seed = 6;
        return kern::buildBaseKernel(params);
    }();
    return kernel;
}

fuzz::CampaignOptions
smallCampaign(size_t workers, uint64_t seed)
{
    fuzz::CampaignOptions opts;
    opts.workers = workers;
    opts.fuzz.exec_budget = 1500;
    opts.fuzz.seed = seed;
    opts.fuzz.seed_corpus_size = 20;
    opts.fuzz.checkpoint_every = 250;
    return opts;
}

fuzz::CampaignEngine::LocalizerFactory
randomLocalizers()
{
    return [](size_t) { return std::make_unique<mut::RandomLocalizer>(); };
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    out << content;
}

TimelineTick
tickAt(uint64_t execs, uint64_t edges = 0)
{
    TimelineTick tick;
    tick.execs = execs;
    tick.edges = edges;
    return tick;
}

TEST(Metrics, HistogramStatMatchesSnapshotMoments)
{
    Registry reg;
    Histogram &hist = reg.histogram("tlx.stat_us");
    for (int i = 1; i <= 10; ++i)
        hist.record(static_cast<double>(i));
    const RunningStat stat = hist.stat();
    EXPECT_EQ(stat.count(), 10u);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.5);
    EXPECT_DOUBLE_EQ(stat.min(), 1.0);
    EXPECT_DOUBLE_EQ(stat.max(), 10.0);
}

TEST(TimelineRecorder, RingIsBounded)
{
    Registry reg;
    TimelineOptions opts;
    opts.ring_capacity = 4;
    TimelineRecorder recorder(opts);

    for (uint64_t i = 1; i <= 10; ++i)
        recorder.onCheckpoint(tickAt(i * 100), reg);
    EXPECT_EQ(recorder.sampleCount(), 10u);

    const auto samples = recorder.samples();
    ASSERT_EQ(samples.size(), 4u);
    EXPECT_EQ(samples.front().tick.execs, 700u);
    EXPECT_EQ(samples.back().tick.execs, 1000u);
}

TEST(TimelineRecorder, FinalizeIsIdempotentAndStopsSampling)
{
    Registry reg;
    TimelineRecorder recorder;
    recorder.onCheckpoint(tickAt(100), reg);
    recorder.finalize(tickAt(200), reg);
    EXPECT_EQ(recorder.sampleCount(), 2u);
    recorder.finalize(tickAt(300), reg);
    recorder.onCheckpoint(tickAt(400), reg);
    EXPECT_EQ(recorder.sampleCount(), 2u);
    EXPECT_EQ(recorder.samples().back().tick.execs, 200u);
}

TEST(TimelineRecorder, RecentJsonExposesTheWindow)
{
    Registry reg;
    TimelineRecorder recorder;
    recorder.onCheckpoint(tickAt(100, 7), reg);
    recorder.onCheckpoint(tickAt(200, 9), reg);

    const std::string json = recorder.recentJson(1);
    EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
    EXPECT_NE(json.find("\"samples\":2"), std::string::npos);
    EXPECT_NE(json.find("\"execs\":200"), std::string::npos);
    // Window capped at 1: the older sample is not in the payload.
    EXPECT_EQ(json.find("\"execs\":100"), std::string::npos);
}

TEST(TimelineRecorder, WritesDeltaEncodedArtifact)
{
    const std::string path = "/tmp/sp_timeline_test_unit.jsonl";
    Registry reg;
    TimelineRecorder recorder;
    ASSERT_TRUE(recorder.openLog(path, "\"campaign\":{\"seed\":7}"));

    reg.counter("tlx.count").inc(3);
    recorder.onCheckpoint(tickAt(100, 5), reg);
    reg.counter("tlx.count").inc(2);
    recorder.onCheckpoint(tickAt(200, 6), reg);
    recorder.finalize(tickAt(300, 7), reg);

    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_NE(lines[0].find("\"type\":\"timeline_header\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"campaign\":{\"seed\":7}"),
              std::string::npos);
    // Deltas, not cumulative values, line over line.
    EXPECT_NE(lines[1].find("\"tlx.count\":3"), std::string::npos);
    EXPECT_NE(lines[2].find("\"tlx.count\":2"), std::string::npos);
    // The final record is cumulative again.
    EXPECT_NE(lines[3].find("\"type\":\"timeline_final\""),
              std::string::npos);
    EXPECT_NE(lines[3].find("\"tlx.count\":5"), std::string::npos);
    std::remove(path.c_str());
}

/** One campaign with covmap + timeline artifact; returns the bytes. */
std::string
runArtifact(const std::string &path, uint64_t seed, size_t workers)
{
    const auto &kernel = testKernel();
    CovMap map(CovMapPlan::build(kernel.blocks().size(),
                                 kernel.staticEdges()),
               workers);
    auto opts = smallCampaign(workers, seed);
    opts.fuzz.covmap = &map;
    TimelineRecorder recorder;
    EXPECT_TRUE(recorder.openLog(path));
    opts.fuzz.timeline = &recorder;
    fuzz::CampaignEngine engine(kernel, opts, randomLocalizers());
    engine.run();  // finalizes the covmap, then the artifact
    return readFile(path);
}

TEST(TimelineCampaign, SingleWorkerArtifactIsBitReproducible)
{
    // Same seed, no telemetry sink: the whole JSONL artifact must be
    // byte-identical run over run (virtual time is the only clock).
    const std::string a =
        runArtifact("/tmp/sp_timeline_test_a.jsonl", 11, 1);
    const std::string b =
        runArtifact("/tmp/sp_timeline_test_b.jsonl", 11, 1);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    std::remove("/tmp/sp_timeline_test_a.jsonl");
    std::remove("/tmp/sp_timeline_test_b.jsonl");
}

TEST(TimelineCampaign, SamplesLandOnTheCheckpointGridUnderWorkers)
{
    // Four workers race the stages, but the serialized checkpoint
    // owner samples on the same virtual-time grid as workers=1 —
    // sample K is checkpoint K, exactly (run under TSan in CI).
    const auto &kernel = testKernel();
    auto opts = smallCampaign(4, 33);
    TimelineRecorder recorder;
    opts.fuzz.timeline = &recorder;
    fuzz::CampaignEngine engine(kernel, opts, randomLocalizers());
    auto report = engine.run();

    // One sample per checkpoint, then the run's final record.
    const auto samples = recorder.samples();
    ASSERT_EQ(samples.size(), report.timeline.size() + 1);
    ASSERT_GT(samples.size(), 2u);
    EXPECT_EQ(samples.back().tick.execs, report.execs);
    EXPECT_EQ(samples.back().tick.edges, report.final_edges);
    for (size_t i = 0; i < report.timeline.size(); ++i) {
        EXPECT_EQ(samples[i].tick.execs, report.timeline[i].execs);
        EXPECT_EQ(samples[i].tick.execs % 250, 0u);
        EXPECT_EQ(samples[i].tick.edges, report.timeline[i].edges);
        EXPECT_EQ(samples[i].tick.crashes, report.timeline[i].crashes);
        if (i > 0) {
            EXPECT_GT(samples[i].tick.execs,
                      samples[i - 1].tick.execs);
        }
    }
}

/** Minimal HTTP GET; EXPECT-free so scraper threads can use it. */
std::string
httpGet(uint16_t port, const std::string &path)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    if (::send(fd, request.data(), request.size(), 0) !=
        static_cast<ssize_t>(request.size())) {
        ::close(fd);
        return "";
    }
    std::string reply;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        reply.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return reply;
}

TEST(TimelineEndpoint, DisabledByDefault)
{
    setTimelineProvider(nullptr);
    EXPECT_EQ(timelineJson(), "{\"enabled\":false}");
}

TEST(TimelineEndpoint, ServesTheWindowDuringACampaign)
{
    // Scrape /timeline continuously while checkpoint merges sample the
    // recorder — the recentJson/onCheckpoint concurrency contract
    // (exercised under TSan via the CI stage-3 list).
    TimelineRecorder recorder;
    setTimelineProvider([&recorder] { return recorder.recentJson(); });
    StatusServer server(0);
    ASSERT_NE(server.port(), 0u);

    std::atomic<bool> done{false};
    std::atomic<size_t> scrapes{0};
    std::atomic<size_t> bad{0};
    std::thread scraper([&] {
        while (!done.load(std::memory_order_relaxed)) {
            const std::string reply =
                httpGet(server.port(), "/timeline");
            scrapes.fetch_add(1, std::memory_order_relaxed);
            if (reply.find("200 OK") == std::string::npos ||
                reply.find("\"enabled\":true") == std::string::npos)
                bad.fetch_add(1, std::memory_order_relaxed);
        }
    });

    const auto &kernel = testKernel();
    auto opts = smallCampaign(2, 44);
    opts.fuzz.timeline = &recorder;
    fuzz::CampaignEngine engine(kernel, opts, randomLocalizers());
    engine.run();

    done.store(true);
    scraper.join();
    setTimelineProvider(nullptr);
    EXPECT_GT(recorder.sampleCount(), 0u);
    EXPECT_GT(scrapes.load(), 0u);
    EXPECT_EQ(bad.load(), 0u);
}

TEST(TimelineCompare, SelfComparisonHasZeroDeltasAndNoRegressions)
{
    // A vs A must yield zero deltas and no regression verdicts.
    const std::string path = "/tmp/sp_timeline_test_self.jsonl";
    runArtifact(path, 11, 1);
    const auto log = analysis::TimelineLog::load(path);
    ASSERT_TRUE(log.ok()) << log.error;
    EXPECT_EQ(log.version, 1);
    EXPECT_FALSE(log.timing);
    EXPECT_GT(log.samples.size(), 1u);
    ASSERT_TRUE(log.has_final);

    const auto report = analysis::compare(log, log);
    EXPECT_EQ(report.aligned_samples, log.samples.size());
    EXPECT_FALSE(report.regressed());
    EXPECT_EQ(report.final_edges.a, report.final_edges.b);
    EXPECT_EQ(report.final_edges.verdict, analysis::Verdict::Ok);
    EXPECT_EQ(report.coverage_auc.a, report.coverage_auc.b);
    EXPECT_EQ(report.coverage_auc.verdict, analysis::Verdict::Ok);
    EXPECT_EQ(report.time_to_target.a, report.time_to_target.b);
    EXPECT_DOUBLE_EQ(report.arm_divergence, 0.0);
    for (const auto &counter : report.counters)
        EXPECT_EQ(counter.a, counter.b) << counter.name;

    const std::string json = analysis::compareJson(report);
    EXPECT_NE(json.find("\"type\":\"compare_report\""),
              std::string::npos);
    EXPECT_NE(json.find("\"verdict\":\"ok\""), std::string::npos);
    const std::string text = analysis::compareText(report);
    EXPECT_NE(text.find("no regressions"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TimelineCompare, CatchesACoverageRegression)
{
    const std::string path_a = "/tmp/sp_timeline_test_reg_a.jsonl";
    const std::string path_b = "/tmp/sp_timeline_test_reg_b.jsonl";
    writeFile(
        path_a,
        "{\"type\":\"timeline_header\",\"version\":1,"
        "\"ring_capacity\":8,\"timing\":false}\n"
        "{\"type\":\"timeline_sample\",\"execs\":100,\"edges\":50,"
        "\"blocks\":40,\"crashes\":0,\"corpus\":10,\"counters\":{},"
        "\"gauges\":{},\"hists\":{}}\n"
        "{\"type\":\"timeline_sample\",\"execs\":200,\"edges\":80,"
        "\"blocks\":60,\"crashes\":1,\"corpus\":14,\"counters\":{},"
        "\"gauges\":{},\"hists\":{}}\n");
    writeFile(
        path_b,
        "{\"type\":\"timeline_header\",\"version\":1,"
        "\"ring_capacity\":8,\"timing\":false}\n"
        "{\"type\":\"timeline_sample\",\"execs\":100,\"edges\":30,"
        "\"blocks\":25,\"crashes\":0,\"corpus\":9,\"counters\":{},"
        "\"gauges\":{},\"hists\":{}}\n"
        "{\"type\":\"timeline_sample\",\"execs\":200,\"edges\":40,"
        "\"blocks\":30,\"crashes\":0,\"corpus\":11,\"counters\":{},"
        "\"gauges\":{},\"hists\":{}}\n");

    const auto log_a = analysis::TimelineLog::load(path_a);
    const auto log_b = analysis::TimelineLog::load(path_b);
    ASSERT_TRUE(log_a.ok()) << log_a.error;
    ASSERT_TRUE(log_b.ok()) << log_b.error;

    const auto report = analysis::compare(log_a, log_b);
    EXPECT_EQ(report.aligned_samples, 2u);
    EXPECT_TRUE(report.regressed());
    EXPECT_EQ(report.final_edges.verdict,
              analysis::Verdict::Regressed);
    EXPECT_EQ(report.coverage_auc.verdict,
              analysis::Verdict::Regressed);
    // B never reaches 90% of A's final edges.
    EXPECT_EQ(report.time_to_target.verdict,
              analysis::Verdict::Regressed);
    const std::string json = analysis::compareJson(report);
    EXPECT_NE(json.find("\"verdict\":\"regressed\""),
              std::string::npos);

    // The improvement direction is not a regression.
    const auto reversed = analysis::compare(log_b, log_a);
    EXPECT_FALSE(reversed.regressed());
    EXPECT_EQ(reversed.final_edges.verdict,
              analysis::Verdict::Improved);

    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(TimelineCompare, LoadRejectsMissingAndMalformedArtifacts)
{
    EXPECT_FALSE(
        analysis::TimelineLog::load("/tmp/sp_timeline_no_such_file")
            .ok());

    const std::string path = "/tmp/sp_timeline_test_bad.jsonl";
    writeFile(path, "{\"type\":\"timeline_sample\",\"execs\":1}\n");
    const auto no_header = analysis::TimelineLog::load(path);
    EXPECT_FALSE(no_header.ok());
    EXPECT_NE(no_header.error.find("timeline_header"),
              std::string::npos);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace sp::obs
