/**
 * @file
 * Pipeline span tracing, the live worker status board, and the
 * crash-time flight recorder.
 *
 * Tracing model: each scheduler round of the campaign pipeline gets a
 * **trace id** (beginTrace(), sampled 1/N), carried in a thread-local
 * so every stage a worker runs — and every hand-off the round makes,
 * including the AsyncPmmLocalizer → InferenceService hop — can stamp
 * its spans with the same id. Spans are *complete* events (start +
 * duration, Chrome `"ph":"X"`) recorded at scope exit into a
 * per-thread lock-free ring buffer; sampled spans are additionally
 * collected centrally for the `--trace-out` Perfetto export.
 *
 * The rings double as a black box: on SP_PANIC, a fatal signal, or a
 * worker stall, the flight recorder dumps every ring's most recent
 * spans plus the status board and a registry snapshot to
 * `flightrec-<ts>.json`, so the last seconds of a wedged 24 h campaign
 * are recoverable post mortem.
 *
 * Hot-path discipline matches metrics.h: with no tracer installed a
 * span costs one relaxed atomic load (traceEnabled()) and a status
 * board update one more (introspectionEnabled()); neither reads the
 * clock. BM_TraceOverhead in bench/sec55_perf proves the disabled
 * path stays under 1% of a campaign slot.
 */
#ifndef SP_OBS_TRACE_H
#define SP_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace sp::obs {

/** Span kinds: the six pipeline stages plus hand-off spans. */
enum class SpanKind : uint32_t {
    Schedule = 0,        ///< scheduler pick
    Localize,            ///< localizer query (incl. probe runs)
    Instantiate,         ///< mutant materialization
    Execute,             ///< program execution (recorded by Executor)
    Triage,              ///< crash record + corpus admission
    Checkpoint,          ///< checkpoint snapshot emission
    Seed,                ///< seed-corpus generation round
    CheckpointWait,      ///< blocked in the ledger prefix barrier
    InferQueue,          ///< request queue-wait inside the service
    InferBatch,          ///< one micro-batched forward pass
    kCount,
};

/** Stable lowercase name of a span kind (trace event `name`). */
const char *spanKindName(SpanKind kind);

/** One recorded span (complete event). */
struct Span
{
    uint64_t trace_id = 0;  ///< pipeline round id; 0 = none
    uint64_t ts_us = 0;     ///< start, monotonicMicros() time base
    uint64_t dur_us = 0;
    uint64_t arg = 0;       ///< kind-specific (slot / wait µs / batch)
    SpanKind kind = SpanKind::Schedule;
    uint32_t ring = 0;      ///< recording ring (≈ thread) id
};

/** Tracer configuration (the CLI's --trace-* flags). */
struct TraceOptions
{
    /** Perfetto/Chrome trace_event JSON output; empty = rings only
     *  (flight recorder still armed). */
    std::string path;
    /** Keep 1 of every `sample` trace ids (--trace-sample 1/64 -> 64).
     *  0 or 1 = keep everything. */
    uint32_t sample = 1;
    /** Spans retained per thread ring (the black box depth). */
    size_t ring_capacity = 1024;
    /** Cap on centrally collected spans for the export; further spans
     *  are counted as dropped, keeping a 24 h run bounded. */
    size_t max_export_spans = 1u << 20;
    /** Directory flight-recorder dumps land in. */
    std::string flightrec_dir = ".";
    /** Worker stall watchdog: dump a flight record when a worker sits
     *  in one stage longer than this. 0 disables the watchdog. */
    uint64_t stall_timeout_us = 0;
};

namespace detail {
/** The traceEnabled() flag, set by installTracer/shutdownTracer. */
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/** Cached gate for span recording (one relaxed load when off). */
inline bool
traceEnabled()
{
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/**
 * Install the process-wide tracer: enables span recording, arms the
 * flight recorder (SP_PANIC hook + fatal-signal handlers), and starts
 * the stall watchdog when configured. Replaces any previous tracer.
 */
void installTracer(const TraceOptions &opts);

/**
 * Export collected spans to `opts.path` (when set) as a Chrome
 * trace_event JSON array, stop the watchdog, disarm the hooks and
 * disable recording. Idempotent; rings keep their contents so tests
 * and late flight records can still inspect them.
 */
void shutdownTracer();

/**
 * Start a new pipeline round: returns a fresh trace id, or 0 when
 * tracing is off or the round was sampled out. Pair with TraceScope.
 */
uint64_t beginTrace();

/** The calling thread's active trace id (0 = none). */
uint64_t currentTraceId();

/** Scopes a trace id onto the calling thread (saves/restores). */
class TraceScope
{
  public:
    explicit TraceScope(uint64_t trace_id);
    ~TraceScope();

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    uint64_t saved_;
};

/**
 * RAII span: records [construction, destruction) into the calling
 * thread's ring under the current (or explicit) trace id. Inactive —
 * no clock reads — when tracing is off or the trace id is 0.
 */
class TraceSpan
{
  public:
    /** Span under the thread's current trace id. */
    explicit TraceSpan(SpanKind kind, uint64_t arg = 0)
        : arg_(arg), kind_(kind)
    {
        if (traceEnabled())
            open(currentTraceId());
    }

    /** Span under an explicit trace id (cross-thread hand-offs). */
    TraceSpan(SpanKind kind, uint64_t trace_id, uint64_t arg)
        : arg_(arg), kind_(kind)
    {
        if (traceEnabled())
            open(trace_id);
    }

    ~TraceSpan()
    {
        if (trace_id_ != 0)
            close();
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Amend the kind-specific argument before the span closes. */
    void setArg(uint64_t arg) { arg_ = arg; }

  private:
    /** Out-of-line halves of an enabled span: the disabled path above
     *  stays one inlined relaxed load. */
    void open(uint64_t trace_id);
    void close();

    uint64_t trace_id_ = 0;  ///< 0 = inactive
    uint64_t start_us_ = 0;
    uint64_t arg_ = 0;
    SpanKind kind_;
};

/**
 * Record an already-measured span (e.g. a queue wait reconstructed
 * from request timestamps) into the calling thread's ring.
 */
void recordSpan(SpanKind kind, uint64_t trace_id, uint64_t ts_us,
                uint64_t dur_us, uint64_t arg = 0);

/** Label the calling thread's ring ("worker0", "infer1", ...). */
void setRingLabel(const std::string &label);

/** One ring's identity + contents for inspection/dumping. */
struct RingSnapshot
{
    uint32_t ring = 0;
    std::string label;
    std::vector<Span> spans;  ///< oldest → newest, ≤ ring capacity
};

/**
 * Copy every ring's retained spans (lock-free readers; a span being
 * overwritten concurrently may tear across fields — tolerable for a
 * black box, and impossible for quiescent reads as in tests).
 */
std::vector<RingSnapshot> snapshotRings();

/** Spans collected for export so far (tests). */
size_t exportedSpanCount();

/** @name Live worker status board
 *
 * Fixed-size array of per-worker (stage, slot, since) triples updated
 * with relaxed stores by campaign workers and read by the status
 * server and the flight recorder. Gated on introspectionEnabled() so
 * an unobserved run pays one relaxed load per update site.
 */
/** @{ */

/** What a worker is doing right now. */
enum class WorkerStage : uint32_t {
    Idle = 0,
    Schedule,
    Localize,
    Instantiate,
    Execute,
    Triage,
    Checkpoint,
    Seed,
};

const char *workerStageName(WorkerStage stage);

class StatusBoard
{
  public:
    static constexpr size_t kMaxWorkers = 64;

    /** Announce a campaign with `workers` lanes (clears the board). */
    void reset(size_t workers);

    /** Publish worker `w`'s current stage and slot (relaxed). */
    void setStage(size_t worker, WorkerStage stage, uint64_t slot = 0);

    /** Active lane count. */
    size_t workers() const
    {
        return workers_.load(std::memory_order_acquire);
    }

    /** One worker's momentary state. */
    struct WorkerState
    {
        WorkerStage stage = WorkerStage::Idle;
        uint64_t slot = 0;
        uint64_t since_us = 0;  ///< stage entry, monotonicMicros()
    };

    WorkerState worker(size_t w) const;

  private:
    struct Lane
    {
        std::atomic<uint32_t> stage{0};
        std::atomic<uint64_t> slot{0};
        std::atomic<uint64_t> since_us{0};
    };

    std::atomic<size_t> workers_{0};
    Lane lanes_[kMaxWorkers];
};

/** The process-wide board. */
StatusBoard &statusBoard();

/** Cached gate for status-board updates (tracer or status server). */
bool introspectionEnabled();

/**
 * Reference-counted enablement: the tracer and each status server
 * take a claim for their lifetime (installTracer/StatusServer claim,
 * shutdownTracer/~StatusServer release), so tearing one consumer down
 * never blinds another whose watchdog is still armed. Release is
 * clamped at zero.
 */
void claimIntrospection();
void releaseIntrospection();

/**
 * Register a callable returning a JSON object with campaign-level
 * state (corpus size, ledger watermark, ...); it is embedded under
 * "campaign" in statusJson() and flight records. Pass nullptr to
 * clear. The callable runs on server/watchdog threads and must be
 * safe concurrently with the campaign, and must not call back into
 * setStatusProvider()/statusJson(): it is invoked under the
 * registration mutex, which is what guarantees that once
 * setStatusProvider() returns, no in-flight invocation of the
 * previous provider remains (safe to destroy its captures).
 */
void setStatusProvider(std::function<std::string()> provider);

/**
 * JSON snapshot of the board + campaign provider:
 * {"t_us":..,"workers":[{"id":..,"stage":..,"slot":..,
 *  "stage_age_us":..}],"campaign":{..}}.
 */
std::string statusJson();

/**
 * Register the callable behind the status server's /coverage endpoint
 * (normally CovMap::summaryJson of the live campaign, or a frozen
 * summary once the campaign finished). Same concurrency contract as
 * setStatusProvider(): the provider runs under the registration mutex,
 * so once setCoverageProvider() returns no in-flight invocation of the
 * previous provider remains. Pass nullptr to clear.
 */
void setCoverageProvider(std::function<std::string()> provider);

/**
 * The /coverage payload: the registered provider's JSON, or
 * {"enabled":false} when none is registered.
 */
std::string coverageJson();

/**
 * Register the callable behind the status server's /timeline endpoint
 * (normally TimelineRecorder::recentJson of the live campaign, or a
 * frozen window once the campaign finished). Same concurrency contract
 * as setStatusProvider(). Flight records embed the same payload so a
 * stall dump carries the metric trend, not just the final state. Pass
 * nullptr to clear.
 */
void setTimelineProvider(std::function<std::string()> provider);

/**
 * The /timeline payload: the registered provider's JSON, or
 * {"enabled":false} when none is registered.
 */
std::string timelineJson();

/** @} */

/**
 * Dump a flight record — every ring's recent spans, the status board
 * and a registry snapshot — to `flightrec-<ts>.json` under the
 * configured directory. Returns the path, or "" when no tracer is
 * installed or the file cannot be written. Safe to call manually at
 * any time; the panic/signal/stall hooks go through it at most once
 * per tracer install.
 */
std::string flightRecordNow(std::string_view reason);

}  // namespace sp::obs

#endif  // SP_OBS_TRACE_H
