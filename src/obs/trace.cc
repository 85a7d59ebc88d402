#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "util/logging.h"

namespace sp::obs {

std::atomic<bool> detail::g_trace_enabled{false};

namespace {

/** Introspection claims: tracer + each status server hold one while
 *  alive; the board is live while any claim is held. */
std::atomic<int> g_introspection_claims{0};

thread_local uint64_t t_trace_id = 0;

/**
 * One thread's span ring. Single producer (the owning thread); spans
 * are stored as relaxed atomic words so concurrent snapshot readers
 * (status server, flight recorder) are data-race-free — a slot being
 * overwritten mid-read may tear *across* fields, never within one,
 * which is the black-box trade the header documents.
 */
class SpanRing
{
  public:
    SpanRing(size_t capacity, uint32_t id, std::string label)
        : id_(id), label_(std::move(label))
    {
        resize(capacity);
    }

    /** Producer-side only; callers guarantee no concurrent resize. */
    void
    push(const Span &span)
    {
        const uint64_t n = count_.load(std::memory_order_relaxed);
        AtomicSpan &slot = slots_[n % capacity_];
        slot.f[0].store(span.trace_id, std::memory_order_relaxed);
        slot.f[1].store(span.ts_us, std::memory_order_relaxed);
        slot.f[2].store(span.dur_us, std::memory_order_relaxed);
        slot.f[3].store(span.arg, std::memory_order_relaxed);
        slot.f[4].store(static_cast<uint64_t>(span.kind),
                        std::memory_order_relaxed);
        count_.store(n + 1, std::memory_order_release);
    }

    RingSnapshot
    snapshot() const
    {
        RingSnapshot out;
        out.ring = id_;
        out.label = label_;
        const uint64_t n = count_.load(std::memory_order_acquire);
        const uint64_t kept = n < capacity_ ? n : capacity_;
        out.spans.reserve(kept);
        for (uint64_t i = n - kept; i < n; ++i) {
            const AtomicSpan &slot = slots_[i % capacity_];
            Span span;
            span.trace_id = slot.f[0].load(std::memory_order_relaxed);
            span.ts_us = slot.f[1].load(std::memory_order_relaxed);
            span.dur_us = slot.f[2].load(std::memory_order_relaxed);
            span.arg = slot.f[3].load(std::memory_order_relaxed);
            span.kind = static_cast<SpanKind>(
                slot.f[4].load(std::memory_order_relaxed));
            span.ring = id_;
            out.spans.push_back(span);
        }
        return out;
    }

    /** Only while unowned (creation / free-list reuse), under the
     *  ring-registry mutex. */
    void
    resize(size_t capacity)
    {
        capacity_ = capacity == 0 ? 1 : capacity;
        slots_ = std::make_unique<AtomicSpan[]>(capacity_);
        count_.store(0, std::memory_order_release);
    }

    void setLabel(std::string label) { label_ = std::move(label); }
    uint32_t id() const { return id_; }

  private:
    struct AtomicSpan
    {
        std::atomic<uint64_t> f[5];
    };

    uint32_t id_;
    std::string label_;
    size_t capacity_ = 0;
    std::unique_ptr<AtomicSpan[]> slots_;
    std::atomic<uint64_t> count_{0};
};

/** Registry of every ring ever created, plus a free list so rings of
 *  exited threads are recycled instead of accumulating. */
struct RingRegistry
{
    std::mutex mu;
    std::vector<std::unique_ptr<SpanRing>> rings;
    std::vector<SpanRing *> free_list;
    size_t default_capacity = 1024;
};

RingRegistry &
ringRegistry()
{
    static RingRegistry *registry = new RingRegistry;
    return *registry;
}

/** Returns a ring to the free list when its owner thread exits. */
struct RingLease
{
    SpanRing *ring = nullptr;

    ~RingLease()
    {
        if (ring == nullptr)
            return;
        RingRegistry &registry = ringRegistry();
        std::lock_guard<std::mutex> lock(registry.mu);
        registry.free_list.push_back(ring);
    }
};

SpanRing &
ringForThisThread()
{
    static thread_local RingLease lease;
    if (lease.ring == nullptr) {
        RingRegistry &registry = ringRegistry();
        std::lock_guard<std::mutex> lock(registry.mu);
        if (!registry.free_list.empty()) {
            lease.ring = registry.free_list.back();
            registry.free_list.pop_back();
            lease.ring->resize(registry.default_capacity);
            lease.ring->setLabel("thread" +
                                 std::to_string(lease.ring->id()));
        } else {
            const auto id =
                static_cast<uint32_t>(registry.rings.size());
            registry.rings.push_back(std::make_unique<SpanRing>(
                registry.default_capacity, id,
                "thread" + std::to_string(id)));
            lease.ring = registry.rings.back().get();
        }
    }
    return *lease.ring;
}

/** Tracer state guarded by one mutex (install/shutdown/export/dump). */
struct TracerState
{
    std::mutex mu;
    bool installed = false;
    TraceOptions opts;
    std::vector<Span> export_spans;
    uint64_t export_dropped = 0;
    bool exporting = false;

    std::thread watchdog;
    std::atomic<bool> watchdog_stop{false};

    std::atomic<uint64_t> next_trace{0};
};

TracerState &
tracerState()
{
    static TracerState *state = new TracerState;
    return *state;
}

std::atomic<bool> g_exporting{false};

/** One dump per process from the automatic hooks. */
std::atomic<bool> g_auto_dumped{false};

std::mutex g_status_provider_mu;
std::function<std::string()> g_status_provider;
std::mutex g_coverage_provider_mu;
std::function<std::string()> g_coverage_provider;
std::mutex g_timeline_provider_mu;
std::function<std::string()> g_timeline_provider;

void
collectForExport(const Span &span)
{
    TracerState &state = tracerState();
    std::lock_guard<std::mutex> lock(state.mu);
    if (!state.installed)
        return;
    if (state.export_spans.size() >= state.opts.max_export_spans) {
        ++state.export_dropped;
        return;
    }
    state.export_spans.push_back(span);
}

void
record(SpanKind kind, uint64_t trace_id, uint64_t ts_us,
       uint64_t dur_us, uint64_t arg)
{
    Span span;
    span.trace_id = trace_id;
    span.ts_us = ts_us;
    span.dur_us = dur_us;
    span.arg = arg;
    span.kind = kind;
    SpanRing &ring = ringForThisThread();
    span.ring = ring.id();
    ring.push(span);
    if (g_exporting.load(std::memory_order_relaxed))
        collectForExport(span);
}

void
appendTraceEvent(std::string &out, const Span &span)
{
    out += "{\"name\":\"";
    out += spanKindName(span.kind);
    out += "\",\"cat\":\"pipeline\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(span.ring);
    out += ",\"ts\":";
    out += std::to_string(span.ts_us);
    out += ",\"dur\":";
    out += std::to_string(span.dur_us);
    out += ",\"args\":{\"trace_id\":";
    out += std::to_string(span.trace_id);
    out += ",\"arg\":";
    out += std::to_string(span.arg);
    out += "}}";
}

/** Serialize spans as one Chrome trace_event JSON array, prefixed by
 *  thread_name metadata events so Perfetto labels the tracks. */
std::string
traceEventJson(const std::vector<Span> &spans)
{
    std::string out;
    out.reserve(spans.size() * 96 + 1024);
    out += "[";
    bool first = true;
    {
        RingRegistry &registry = ringRegistry();
        std::lock_guard<std::mutex> lock(registry.mu);
        for (const auto &ring : registry.rings) {
            if (!first)
                out += ",\n";
            first = false;
            out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                   "\"tid\":";
            out += std::to_string(ring->id());
            out += ",\"args\":{\"name\":";
            out += jsonQuote(ring->snapshot().label);
            out += "}}";
        }
    }
    for (const Span &span : spans) {
        if (!first)
            out += ",\n";
        first = false;
        appendTraceEvent(out, span);
    }
    out += "]\n";
    return out;
}

void flightRecordFromHook(const char *reason);

extern "C" void
fatalSignalHandler(int signo)
{
    // Best effort: the dump path takes locks and allocates, which is
    // not async-signal-safe, but on a crashing process a partially
    // written flight record beats none. Restore + re-raise so the
    // default disposition (core dump, exit code) still applies.
    std::signal(signo, SIG_DFL);
    char reason[64];
    std::snprintf(reason, sizeof(reason), "fatal signal %d", signo);
    flightRecordFromHook(reason);
    std::raise(signo);
}

void
panicHook(const char *message)
{
    flightRecordFromHook(message);
}

constexpr int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGILL, SIGFPE,
                                 SIGABRT};

void
armCrashHooks()
{
    setPanicHook(&panicHook);
    for (int signo : kFatalSignals)
        std::signal(signo, &fatalSignalHandler);
}

void
disarmCrashHooks()
{
    setPanicHook(nullptr);
    for (int signo : kFatalSignals)
        std::signal(signo, SIG_DFL);
}

void
watchdogLoop()
{
    TracerState &state = tracerState();
    uint64_t timeout_us;
    {
        std::lock_guard<std::mutex> lock(state.mu);
        timeout_us = state.opts.stall_timeout_us;
    }
    const auto nap = std::chrono::microseconds(
        std::max<uint64_t>(timeout_us / 4, 1000));
    while (!state.watchdog_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(nap);
        const StatusBoard &board = statusBoard();
        const uint64_t now = monotonicMicros();
        for (size_t w = 0; w < board.workers(); ++w) {
            const auto worker = board.worker(w);
            if (worker.stage == WorkerStage::Idle)
                continue;
            if (now - worker.since_us < timeout_us)
                continue;
            char reason[128];
            std::snprintf(reason, sizeof(reason),
                          "worker %zu stalled in %s for %llu us "
                          "(slot %llu)",
                          w, workerStageName(worker.stage),
                          static_cast<unsigned long long>(
                              now - worker.since_us),
                          static_cast<unsigned long long>(worker.slot));
            flightRecordFromHook(reason);
            return;  // one stall dump per watchdog lifetime
        }
    }
}

}  // namespace

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Schedule:
        return "schedule";
      case SpanKind::Localize:
        return "localize";
      case SpanKind::Instantiate:
        return "instantiate";
      case SpanKind::Execute:
        return "execute";
      case SpanKind::Triage:
        return "triage";
      case SpanKind::Checkpoint:
        return "checkpoint";
      case SpanKind::Seed:
        return "seed";
      case SpanKind::CheckpointWait:
        return "checkpoint_wait";
      case SpanKind::InferQueue:
        return "infer_queue";
      case SpanKind::InferBatch:
        return "infer_batch";
      case SpanKind::kCount:
        break;
    }
    return "?";
}

void
installTracer(const TraceOptions &opts)
{
    TracerState &state = tracerState();
    // Quiesce a previous tracer first (joins its watchdog).
    shutdownTracer();
    {
        std::lock_guard<std::mutex> lock(state.mu);
        state.opts = opts;
        if (state.opts.sample == 0)
            state.opts.sample = 1;
        state.installed = true;
        state.export_spans.clear();
        state.export_dropped = 0;
        state.exporting = true;
    }
    {
        RingRegistry &registry = ringRegistry();
        std::lock_guard<std::mutex> lock(registry.mu);
        registry.default_capacity =
            opts.ring_capacity == 0 ? 1 : opts.ring_capacity;
    }
    armCrashHooks();
    g_auto_dumped.store(false, std::memory_order_release);
    g_exporting.store(true, std::memory_order_release);
    detail::g_trace_enabled.store(true, std::memory_order_release);
    // Released by shutdownTracer() — the watchdog reads the board, so
    // the claim must outlive it, not any status server.
    claimIntrospection();
    if (opts.stall_timeout_us > 0) {
        state.watchdog_stop.store(false, std::memory_order_release);
        state.watchdog = std::thread(&watchdogLoop);
    }
}

void
shutdownTracer()
{
    TracerState &state = tracerState();
    detail::g_trace_enabled.store(false, std::memory_order_release);
    g_exporting.store(false, std::memory_order_release);
    state.watchdog_stop.store(true, std::memory_order_release);
    if (state.watchdog.joinable())
        state.watchdog.join();

    std::string path;
    std::string payload;
    {
        std::lock_guard<std::mutex> lock(state.mu);
        if (!state.installed)
            return;
        state.installed = false;
        state.exporting = false;
        path = state.opts.path;
        if (!path.empty()) {
            if (state.export_dropped > 0) {
                SP_WARN("trace export dropped %llu spans past the "
                        "%zu-span cap",
                        static_cast<unsigned long long>(
                            state.export_dropped),
                        state.opts.max_export_spans);
            }
            payload = traceEventJson(state.export_spans);
        }
        state.export_spans.clear();
        state.export_spans.shrink_to_fit();
    }
    disarmCrashHooks();
    releaseIntrospection();
    if (!path.empty()) {
        std::FILE *file = std::fopen(path.c_str(), "w");
        if (file == nullptr) {
            SP_WARN("cannot open trace file '%s'", path.c_str());
        } else {
            std::fwrite(payload.data(), 1, payload.size(), file);
            std::fclose(file);
        }
    }
}

uint64_t
beginTrace()
{
    if (!traceEnabled())
        return 0;
    TracerState &state = tracerState();
    const uint64_t id =
        state.next_trace.fetch_add(1, std::memory_order_relaxed) + 1;
    uint32_t sample = 1;
    {
        // opts.sample is only written while tracing is disabled, so
        // this read is effectively immutable; keep it under the mutex
        // anyway to stay obviously correct.
        std::lock_guard<std::mutex> lock(state.mu);
        sample = state.opts.sample;
    }
    if (sample > 1 && id % sample != 0)
        return 0;
    return id;
}

uint64_t
currentTraceId()
{
    return t_trace_id;
}

TraceScope::TraceScope(uint64_t trace_id) : saved_(t_trace_id)
{
    t_trace_id = trace_id;
}

TraceScope::~TraceScope()
{
    t_trace_id = saved_;
}

void
TraceSpan::open(uint64_t trace_id)
{
    trace_id_ = trace_id;
    if (trace_id_ != 0)
        start_us_ = monotonicMicros();
}

void
TraceSpan::close()
{
    const uint64_t end = monotonicMicros();
    record(kind_, trace_id_, start_us_, end - start_us_, arg_);
}

void
recordSpan(SpanKind kind, uint64_t trace_id, uint64_t ts_us,
           uint64_t dur_us, uint64_t arg)
{
    if (!traceEnabled())
        return;
    record(kind, trace_id, ts_us, dur_us, arg);
}

void
setRingLabel(const std::string &label)
{
    SpanRing &ring = ringForThisThread();
    RingRegistry &registry = ringRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    ring.setLabel(label);
}

std::vector<RingSnapshot>
snapshotRings()
{
    RingRegistry &registry = ringRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    std::vector<RingSnapshot> out;
    out.reserve(registry.rings.size());
    for (const auto &ring : registry.rings)
        out.push_back(ring->snapshot());
    return out;
}

size_t
exportedSpanCount()
{
    TracerState &state = tracerState();
    std::lock_guard<std::mutex> lock(state.mu);
    return state.export_spans.size();
}

const char *
workerStageName(WorkerStage stage)
{
    switch (stage) {
      case WorkerStage::Idle:
        return "idle";
      case WorkerStage::Schedule:
        return "schedule";
      case WorkerStage::Localize:
        return "localize";
      case WorkerStage::Instantiate:
        return "instantiate";
      case WorkerStage::Execute:
        return "execute";
      case WorkerStage::Triage:
        return "triage";
      case WorkerStage::Checkpoint:
        return "checkpoint";
      case WorkerStage::Seed:
        return "seed";
    }
    return "?";
}

void
StatusBoard::reset(size_t workers)
{
    const size_t clamped =
        workers > kMaxWorkers ? kMaxWorkers : workers;
    for (size_t w = 0; w < kMaxWorkers; ++w) {
        lanes_[w].stage.store(0, std::memory_order_relaxed);
        lanes_[w].slot.store(0, std::memory_order_relaxed);
        lanes_[w].since_us.store(0, std::memory_order_relaxed);
    }
    workers_.store(clamped, std::memory_order_release);
}

void
StatusBoard::setStage(size_t worker, WorkerStage stage, uint64_t slot)
{
    if (worker >= kMaxWorkers)
        return;
    Lane &lane = lanes_[worker];
    lane.stage.store(static_cast<uint32_t>(stage),
                     std::memory_order_relaxed);
    lane.slot.store(slot, std::memory_order_relaxed);
    lane.since_us.store(monotonicMicros(), std::memory_order_relaxed);
}

StatusBoard::WorkerState
StatusBoard::worker(size_t w) const
{
    WorkerState state;
    if (w >= kMaxWorkers)
        return state;
    const Lane &lane = lanes_[w];
    state.stage = static_cast<WorkerStage>(
        lane.stage.load(std::memory_order_relaxed));
    state.slot = lane.slot.load(std::memory_order_relaxed);
    state.since_us = lane.since_us.load(std::memory_order_relaxed);
    return state;
}

StatusBoard &
statusBoard()
{
    static StatusBoard *board = new StatusBoard;
    return *board;
}

bool
introspectionEnabled()
{
    return g_introspection_claims.load(std::memory_order_relaxed) > 0;
}

void
claimIntrospection()
{
    g_introspection_claims.fetch_add(1, std::memory_order_relaxed);
}

void
releaseIntrospection()
{
    // Clamped at zero so an unmatched release (test teardown sweeping
    // up) can never disable a claim someone else still holds.
    int claims = g_introspection_claims.load(std::memory_order_relaxed);
    while (claims > 0 &&
           !g_introspection_claims.compare_exchange_weak(
               claims, claims - 1, std::memory_order_relaxed)) {
    }
}

void
setStatusProvider(std::function<std::string()> provider)
{
    std::lock_guard<std::mutex> lock(g_status_provider_mu);
    g_status_provider = std::move(provider);
}

std::string
statusJson()
{
    const StatusBoard &board = statusBoard();
    const uint64_t now = monotonicMicros();
    std::string out;
    out.reserve(512);
    out += "{\"t_us\":";
    out += std::to_string(now);
    out += ",\"workers\":[";
    for (size_t w = 0; w < board.workers(); ++w) {
        const auto worker = board.worker(w);
        if (w != 0)
            out += ',';
        out += "{\"id\":";
        out += std::to_string(w);
        out += ",\"stage\":";
        out += jsonQuote(workerStageName(worker.stage));
        out += ",\"slot\":";
        out += std::to_string(worker.slot);
        out += ",\"stage_age_us\":";
        out += std::to_string(
            worker.since_us == 0 || now < worker.since_us
                ? 0
                : now - worker.since_us);
        out += "}";
    }
    out += "],\"campaign\":";
    {
        // Invoked under the registration mutex so setStatusProvider()
        // cannot return while an old provider is still running: once a
        // caller has swapped the provider, no thread can be executing
        // the previous one (whose captures may be about to die with a
        // stack frame).
        std::lock_guard<std::mutex> lock(g_status_provider_mu);
        const std::string campaign =
            g_status_provider ? g_status_provider() : "";
        out += campaign.empty() ? "{}" : campaign;
    }
    out += "}";
    return out;
}

void
setCoverageProvider(std::function<std::string()> provider)
{
    std::lock_guard<std::mutex> lock(g_coverage_provider_mu);
    g_coverage_provider = std::move(provider);
}

std::string
coverageJson()
{
    // Same invoke-under-registration-mutex contract as the status
    // provider: once setCoverageProvider() returns, no thread is still
    // running the previous provider.
    std::lock_guard<std::mutex> lock(g_coverage_provider_mu);
    const std::string payload =
        g_coverage_provider ? g_coverage_provider() : "";
    return payload.empty() ? "{\"enabled\":false}" : payload;
}

void
setTimelineProvider(std::function<std::string()> provider)
{
    std::lock_guard<std::mutex> lock(g_timeline_provider_mu);
    g_timeline_provider = std::move(provider);
}

std::string
timelineJson()
{
    // Same invoke-under-registration-mutex contract as the status and
    // coverage providers: once setTimelineProvider() returns, no
    // thread is still running the previous provider.
    std::lock_guard<std::mutex> lock(g_timeline_provider_mu);
    const std::string payload =
        g_timeline_provider ? g_timeline_provider() : "";
    return payload.empty() ? "{\"enabled\":false}" : payload;
}

namespace {

void
flightRecordFromHook(const char *reason)
{
    if (g_auto_dumped.exchange(true, std::memory_order_acq_rel))
        return;
    flightRecordNow(reason);
}

}  // namespace

std::string
flightRecordNow(std::string_view reason)
{
    TracerState &state = tracerState();
    std::string dir;
    {
        std::lock_guard<std::mutex> lock(state.mu);
        if (!state.installed)
            return "";
        dir = state.opts.flightrec_dir;
    }
    if (dir.empty())
        dir = ".";
    const uint64_t now = monotonicMicros();
    const std::string path = dir + "/flightrec-" +
                             std::to_string(now) + ".json";

    std::string out;
    out.reserve(1 << 16);
    out += "{\"reason\":";
    out += jsonQuote(reason);
    out += ",\"t_us\":";
    out += std::to_string(now);
    out += ",\"status\":";
    out += statusJson();
    out += ",\"rings\":[";
    const auto rings = snapshotRings();
    bool first_ring = true;
    for (const RingSnapshot &ring : rings) {
        if (ring.spans.empty())
            continue;
        if (!first_ring)
            out += ',';
        first_ring = false;
        out += "{\"ring\":";
        out += std::to_string(ring.ring);
        out += ",\"label\":";
        out += jsonQuote(ring.label);
        out += ",\"spans\":[";
        for (size_t i = 0; i < ring.spans.size(); ++i) {
            if (i != 0)
                out += ',';
            const Span &span = ring.spans[i];
            out += "{\"name\":\"";
            out += spanKindName(span.kind);
            out += "\",\"trace_id\":";
            out += std::to_string(span.trace_id);
            out += ",\"ts\":";
            out += std::to_string(span.ts_us);
            out += ",\"dur\":";
            out += std::to_string(span.dur_us);
            out += ",\"arg\":";
            out += std::to_string(span.arg);
            out += "}";
        }
        out += "]}";
    }
    out += "],\"timeline\":";
    // Metric trends leading up to the dump: the recent timeline window
    // shows execs/sec decay or queue growth, not just the final state.
    out += timelineJson();
    out += ",\"registry\":";
    out += Registry::global().snapshotJson();
    out += "}\n";

    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
        SP_WARN("flight recorder: cannot open '%s'", path.c_str());
        return "";
    }
    std::fwrite(out.data(), 1, out.size(), file);
    std::fflush(file);
    std::fclose(file);
    SP_WARN("flight record written to %s", path.c_str());
    return path;
}

}  // namespace sp::obs
