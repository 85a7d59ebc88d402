// Tests for the pipeline tracer, status server and flight recorder:
// span open/close pairing across a 4-worker campaign, trace-id
// stability across the async localizer -> inference service hand-off,
// ring-buffer wraparound, trace_event JSON export shape, the /metrics
// and /status endpoints, campaign-scoped gauge lifetime, and the
// SP_PANIC / stall-watchdog flight-record dumps.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/snowplow.h"
#include "fuzz/campaign.h"
#include "kernel/subsystems.h"
#include "obs/metrics.h"
#include "obs/statusd.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace sp {
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

std::string
tempDir(const char *tag)
{
    std::string tmpl = std::string("/tmp/sp_trace_") + tag + "_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *dir = mkdtemp(buf.data());
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp";
}

std::vector<std::string>
flightRecordsIn(const std::string &dir)
{
    std::vector<std::string> out;
    DIR *handle = opendir(dir.c_str());
    if (handle == nullptr)
        return out;
    while (dirent *entry = readdir(handle)) {
        const std::string name = entry->d_name;
        if (name.rfind("flightrec-", 0) == 0)
            out.push_back(dir + "/" + name);
    }
    closedir(handle);
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Minimal HTTP GET against 127.0.0.1:port; returns the raw reply. */
std::string
httpGet(uint16_t port, const std::string &path)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const std::string request =
        "GET " + path + " HTTP/1.0\r\n\r\n";
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
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

/** Spans of one kind across all rings. */
std::vector<obs::Span>
spansOfKind(const std::vector<obs::RingSnapshot> &rings,
            obs::SpanKind kind)
{
    std::vector<obs::Span> out;
    for (const auto &ring : rings)
        for (const auto &span : ring.spans)
            if (span.kind == kind)
                out.push_back(span);
    return out;
}

class TracerTest : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        obs::shutdownTracer();
        // Drop any claim a test leaked (release clamps at zero, so
        // this never disables a claim held elsewhere).
        obs::releaseIntrospection();
        obs::setStatusProvider(nullptr);
    }
};

TEST_F(TracerTest, DisabledSpansRecordNothing)
{
    ASSERT_FALSE(obs::traceEnabled());
    const auto before = obs::snapshotRings();
    size_t before_total = 0;
    for (const auto &ring : before)
        before_total += ring.spans.size();
    {
        obs::TraceSpan span(obs::SpanKind::Execute, 7);
    }
    const auto after = obs::snapshotRings();
    size_t after_total = 0;
    for (const auto &ring : after)
        after_total += ring.spans.size();
    EXPECT_EQ(before_total, after_total);
    EXPECT_EQ(obs::beginTrace(), 0u);
}

TEST_F(TracerTest, SamplingKeepsOneInN)
{
    obs::TraceOptions opts;
    opts.sample = 4;
    obs::installTracer(opts);
    size_t kept = 0;
    for (int i = 0; i < 16; ++i)
        kept += obs::beginTrace() != 0 ? 1 : 0;
    EXPECT_EQ(kept, 4u);
}

TEST_F(TracerTest, TraceScopeSavesAndRestores)
{
    obs::installTracer({});
    EXPECT_EQ(obs::currentTraceId(), 0u);
    {
        obs::TraceScope outer(11);
        EXPECT_EQ(obs::currentTraceId(), 11u);
        {
            obs::TraceScope inner(22);
            EXPECT_EQ(obs::currentTraceId(), 22u);
        }
        EXPECT_EQ(obs::currentTraceId(), 11u);
    }
    EXPECT_EQ(obs::currentTraceId(), 0u);
}

TEST_F(TracerTest, RingWrapsAroundKeepingNewestSpans)
{
    obs::TraceOptions opts;
    opts.ring_capacity = 8;
    obs::installTracer(opts);
    // A fresh thread gets a fresh (or recycled-and-reset) ring sized
    // to the tracer's capacity.
    std::thread([&] {
        obs::setRingLabel("wraparound");
        for (uint64_t i = 1; i <= 20; ++i)
            obs::recordSpan(obs::SpanKind::Execute, 1, i * 100, 10, i);
    }).join();
    const auto rings = obs::snapshotRings();
    const obs::RingSnapshot *ring = nullptr;
    for (const auto &candidate : rings)
        if (candidate.label == "wraparound")
            ring = &candidate;
    ASSERT_NE(ring, nullptr);
    ASSERT_EQ(ring->spans.size(), 8u);
    // Oldest retained span is #13, newest #20, in order.
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(ring->spans[i].arg, 13 + i) << i;
}

TEST_F(TracerTest, FourWorkerCampaignTracesEveryStage)
{
    // Warm the monotonic time base so the first recorded span lands
    // at a nonzero offset (monotonicMicros() is zero at first call).
    (void)monotonicMicros();
    const std::string dir = tempDir("campaign");
    const std::string trace_path = dir + "/trace.json";
    obs::TraceOptions opts;
    opts.path = trace_path;
    opts.sample = 1;
    opts.ring_capacity = 1 << 14;
    obs::installTracer(opts);

    auto engine = core::makeSyzkallerCampaign(testKernel(),
                                              smallCampaign(4, 11));
    engine->run();

    const auto rings = obs::snapshotRings();
    // Every pipeline stage shows up, and every recorded span is a
    // closed one with a real timestamp (open spans are never recorded,
    // which is what makes open/close pairing structural).
    const obs::SpanKind stages[] = {
        obs::SpanKind::Schedule,    obs::SpanKind::Localize,
        obs::SpanKind::Instantiate, obs::SpanKind::Execute,
        obs::SpanKind::Triage,      obs::SpanKind::Checkpoint,
        obs::SpanKind::Seed,
    };
    for (const auto kind : stages) {
        const auto spans = spansOfKind(rings, kind);
        EXPECT_FALSE(spans.empty()) << obs::spanKindName(kind);
        for (const auto &span : spans) {
            EXPECT_NE(span.trace_id, 0u);
            EXPECT_GT(span.ts_us, 0u);
        }
    }
    // All four workers recorded (worker 0 runs on the main thread).
    // Guaranteed only with real parallelism: on a starved machine the
    // main thread can exhaust this small budget before the spawned
    // workers run their first round, so when fewer than 4 CPUs are
    // available only require that the campaign traced at all.
    std::set<uint32_t> worker_rings;
    for (const auto &span : spansOfKind(rings, obs::SpanKind::Schedule))
        worker_rings.insert(span.ring);
    if (std::thread::hardware_concurrency() >= 4)
        EXPECT_GE(worker_rings.size(), 4u);
    else
        EXPECT_GE(worker_rings.size(), 1u);

    EXPECT_GT(obs::exportedSpanCount(), 0u);
    obs::shutdownTracer();

    // The exported file is a trace_event JSON array of complete
    // events plus thread_name metadata.
    const std::string json = readFile(trace_path);
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json[json.size() - 2], ']');  // trailing newline
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"schedule\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos);
    EXPECT_NE(json.find("\"trace_id\""), std::string::npos);
}

TEST_F(TracerTest, TraceIdSurvivesAsyncLocalizerHandOff)
{
    obs::TraceOptions opts;
    opts.sample = 1;
    opts.ring_capacity = 1 << 14;
    obs::installTracer(opts);

    core::Pmm model;
    core::InferenceService service(model, 2);
    auto engine = core::makeAsyncSnowplowCampaign(
        testKernel(), service, smallCampaign(4, 13));
    engine->run();
    engine.reset();  // drain outstanding futures

    const auto rings = obs::snapshotRings();
    const auto queue_spans =
        spansOfKind(rings, obs::SpanKind::InferQueue);
    const auto batch_spans =
        spansOfKind(rings, obs::SpanKind::InferBatch);
    ASSERT_FALSE(queue_spans.empty());
    ASSERT_FALSE(batch_spans.empty());

    // Every inference-side span carries a trace id minted by a worker
    // round — the id crossed the submit() thread boundary intact.
    std::set<uint64_t> round_ids;
    for (const auto &span :
         spansOfKind(rings, obs::SpanKind::Schedule))
        round_ids.insert(span.trace_id);
    for (const auto &span : spansOfKind(rings, obs::SpanKind::Seed))
        round_ids.insert(span.trace_id);
    for (const auto &span : queue_spans) {
        EXPECT_NE(span.trace_id, 0u);
        EXPECT_TRUE(round_ids.count(span.trace_id))
            << "orphan trace id " << span.trace_id;
    }
    for (const auto &span : batch_spans)
        EXPECT_NE(span.trace_id, 0u);

    // And the inference rings are labeled as such.
    bool infer_ring_seen = false;
    for (const auto &ring : rings)
        infer_ring_seen |= ring.label.rfind("infer", 0) == 0;
    EXPECT_TRUE(infer_ring_seen);
}

TEST_F(TracerTest, StatusServerServesMetricsAndStatus)
{
    obs::Registry::global().counter("trace_test.requests").inc(3);
    obs::statusBoard().reset(2);
    obs::statusBoard().setStage(0, obs::WorkerStage::Execute, 42);
    obs::setStatusProvider(
        [] { return std::string("{\"corpus_size\":7}"); });

    obs::StatusServer server(0);
    ASSERT_NE(server.port(), 0u);

    const std::string metrics = httpGet(server.port(), "/metrics");
    EXPECT_NE(metrics.find("200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("# TYPE sp_trace_test_requests counter"),
              std::string::npos);
    EXPECT_NE(metrics.find("sp_trace_test_requests 3"),
              std::string::npos);

    const std::string status = httpGet(server.port(), "/status");
    EXPECT_NE(status.find("200 OK"), std::string::npos);
    EXPECT_NE(status.find("\"stage\":\"execute\""), std::string::npos);
    EXPECT_NE(status.find("\"slot\":42"), std::string::npos);
    EXPECT_NE(status.find("\"corpus_size\":7"), std::string::npos);

    const std::string health = httpGet(server.port(), "/healthz");
    EXPECT_NE(health.find("ok"), std::string::npos);

    const std::string missing = httpGet(server.port(), "/nope");
    EXPECT_NE(missing.find("404"), std::string::npos);
    EXPECT_GE(server.requestsServed(), 4u);
}

TEST_F(TracerTest, StatusJsonEmbedsCampaignStateDuringRun)
{
    // Scrape /status-equivalent JSON while a campaign is live: the
    // provider must expose corpus/ledger/crash state.
    obs::claimIntrospection();
    std::atomic<bool> saw_campaign{false};
    std::thread scraper([&] {
        for (int i = 0; i < 2000 && !saw_campaign.load(); ++i) {
            const std::string status = obs::statusJson();
            if (status.find("\"ledger_watermark\"") !=
                    std::string::npos &&
                status.find("\"corpus_size\"") != std::string::npos) {
                saw_campaign.store(true);
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });
    auto engine = core::makeSyzkallerCampaign(testKernel(),
                                              smallCampaign(2, 17));
    engine->run();
    scraper.join();
    EXPECT_TRUE(saw_campaign.load());
    // After run() the provider is a frozen final snapshot, not a
    // dangling reference into the finished run's stack.
    const std::string after = obs::statusJson();
    EXPECT_NE(after.find("\"ledger_watermark\":1500"),
              std::string::npos);
}

TEST_F(TracerTest, WorkerGaugesDoNotLingerAcrossCampaigns)
{
    auto engine4 = core::makeSyzkallerCampaign(testKernel(),
                                               smallCampaign(4, 19));
    engine4->run();
    EXPECT_NE(engine4->metrics().snapshotJson().find(
                  "fuzz.worker_busy_ratio.w3"),
              std::string::npos);

    // A later 2-worker campaign's registry holds its own two lanes
    // only, whatever earlier campaigns left in the global registry.
    auto engine2 = core::makeSyzkallerCampaign(testKernel(),
                                               smallCampaign(2, 19));
    engine2->run();
    const std::string snapshot = engine2->metrics().snapshotJson();
    EXPECT_NE(snapshot.find("fuzz.worker_busy_ratio.w0"),
              std::string::npos);
    EXPECT_NE(snapshot.find("fuzz.worker_busy_ratio.w1"),
              std::string::npos);
    EXPECT_EQ(snapshot.find("fuzz.worker_busy_ratio.w2"),
              std::string::npos);
    EXPECT_EQ(snapshot.find("fuzz.worker_busy_ratio.w3"),
              std::string::npos);
}

TEST_F(TracerTest, IntrospectionClaimsAreReferenceCounted)
{
    ASSERT_FALSE(obs::introspectionEnabled());
    obs::installTracer({});  // tracer takes a claim
    EXPECT_TRUE(obs::introspectionEnabled());
    {
        obs::StatusServer server(0);  // second claim
        EXPECT_TRUE(obs::introspectionEnabled());
    }
    // Tearing the server down must not blind the tracer (its stall
    // watchdog still reads the board).
    EXPECT_TRUE(obs::introspectionEnabled());
    obs::shutdownTracer();
    EXPECT_FALSE(obs::introspectionEnabled());
    // An unmatched release clamps at zero instead of going negative.
    obs::releaseIntrospection();
    obs::claimIntrospection();
    EXPECT_TRUE(obs::introspectionEnabled());
    obs::releaseIntrospection();
    EXPECT_FALSE(obs::introspectionEnabled());
}

TEST_F(TracerTest, ManualFlightRecordDumpsRingsAndRegistry)
{
    const std::string dir = tempDir("manual");
    obs::TraceOptions opts;
    opts.flightrec_dir = dir;
    obs::installTracer(opts);
    obs::statusBoard().reset(1);
    obs::statusBoard().setStage(0, obs::WorkerStage::Localize, 9);
    obs::recordSpan(obs::SpanKind::Execute, 5, 1000, 50, 9);

    const std::string path = obs::flightRecordNow("unit test");
    ASSERT_FALSE(path.empty());
    const std::string record = readFile(path);
    EXPECT_NE(record.find("\"reason\":\"unit test\""),
              std::string::npos);
    EXPECT_NE(record.find("\"rings\":["), std::string::npos);
    EXPECT_NE(record.find("\"registry\":"), std::string::npos);
    EXPECT_NE(record.find("\"stage\":\"localize\""), std::string::npos);
}

TEST_F(TracerTest, StallWatchdogDumpsFlightRecord)
{
    const std::string dir = tempDir("stall");
    obs::TraceOptions opts;
    opts.flightrec_dir = dir;
    opts.stall_timeout_us = 20 * 1000;  // 20 ms
    obs::installTracer(opts);
    obs::statusBoard().reset(1);
    // A worker "stuck" in Execute longer than the timeout.
    obs::statusBoard().setStage(0, obs::WorkerStage::Execute, 77);
    std::vector<std::string> records;
    for (int i = 0; i < 200; ++i) {
        records = flightRecordsIn(dir);
        if (!records.empty())
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_FALSE(records.empty());
    const std::string record = readFile(records[0]);
    EXPECT_NE(record.find("stalled in execute"), std::string::npos);
    EXPECT_NE(record.find("slot 77"), std::string::npos);
}

using TracerDeathTest = TracerTest;

TEST_F(TracerDeathTest, PanicDumpsFlightRecord)
{
    const std::string dir = tempDir("panic");
    EXPECT_DEATH(
        {
            obs::TraceOptions opts;
            opts.flightrec_dir = dir;
            obs::installTracer(opts);
            obs::recordSpan(obs::SpanKind::Triage, 3, 500, 25, 1);
            SP_PANIC("forced panic for the flight recorder");
        },
        "forced panic");
    const auto records = flightRecordsIn(dir);
    ASSERT_FALSE(records.empty());
    const std::string record = readFile(records[0]);
    EXPECT_NE(record.find("forced panic for the flight recorder"),
              std::string::npos);
    EXPECT_NE(record.find("\"registry\":"), std::string::npos);
}

}  // namespace
}  // namespace sp
