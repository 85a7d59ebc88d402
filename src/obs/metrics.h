/**
 * @file
 * Process-wide metrics registry: named counters, gauges and histograms
 * shared by every layer of the fuzz/train/infer stack.
 *
 * Hot-path discipline: counters and gauges are single relaxed atomics
 * (always on, ~1 ns); histograms hash the calling thread onto one of a
 * small set of shards so concurrent recorders almost never contend, and
 * the shards are folded together only at snapshot time via
 * RunningStat::merge()/Distribution::merge(). Timed spans (SP_TIMED in
 * timer.h) additionally gate on obs::timingEnabled() so a run with no
 * telemetry sink pays one relaxed load per span and nothing else.
 *
 * Metric handles returned by Registry are stable for the registry's
 * lifetime; instrumentation sites look a name up once (function-local
 * static) and keep the reference.
 */
#ifndef SP_OBS_METRICS_H
#define SP_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.h"

namespace sp::obs {

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    inc(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins instantaneous value (queue depths, rates). */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Merged view of a histogram at one point in time. */
struct HistogramSnapshot
{
    RunningStat stat;       ///< exact count/mean/min/max/stddev
    Distribution samples;   ///< retained samples for percentiles
};

/**
 * Latency/size distribution. record() is safe from any thread: the
 * caller lands on a thread-hashed shard whose mutex is effectively
 * uncontended. Each shard keeps exact running moments plus a bounded
 * reservoir sample for percentile queries.
 */
class Histogram
{
  public:
    /** Samples retained per shard (reservoir beyond that). */
    static constexpr size_t kShardSampleCap = 8192;

    void record(double x);

    /** Total observations across all shards. */
    uint64_t count() const;

    /** Merge every shard into one stat + sample set. */
    HistogramSnapshot snapshot() const;

    /**
     * Merge only the exact moments (count/mean/min/max/stddev), no
     * sample copy. O(shards) instead of O(retained samples) — the
     * per-checkpoint timeline sampler's path, where a full snapshot()
     * of every histogram would dominate the checkpoint budget.
     */
    RunningStat stat() const;

    /** Drop all shards' contents. */
    void reset();

  private:
    static constexpr size_t kShards = 8;

    struct Shard
    {
        mutable std::mutex mu;
        RunningStat stat;
        Distribution samples;
        uint64_t lcg = 0x9e3779b97f4a7c15ULL;  ///< reservoir randomness
    };

    Shard &shardForThisThread();

    std::array<Shard, kShards> shards_;
};

/**
 * Named metric registry. `Registry::global()` is the process-wide
 * instance every SP_TIMED span and instrumentation site uses; separate
 * instances can be constructed for tests.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** The process-wide registry. */
    static Registry &global();

    /** Find-or-create. Returned references stay valid for the
     *  registry's lifetime. A name holds at most one metric kind;
     *  asking for the same name with a different kind panics. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /**
     * One JSON object over everything registered:
     * {"counters":{..},"gauges":{..},"histograms":{name:
     * {"count":..,"mean":..,"min":..,"max":..,"stddev":..,
     *  "p50":..,"p90":..,"p95":..,"p99":..}}}.
     * Keys are emitted in sorted order (std::map) so snapshots diff
     * cleanly across runs.
     */
    std::string snapshotJson() const;

    /** Zero every registered metric (keeps the names). */
    void reset();

    /**
     * Call the matching visitor for every registered metric, in
     * sorted name order, under the registry lock. Visitors must not
     * re-enter the registry. Renders (Prometheus exposition, status
     * snapshots) build on this instead of each growing a friend.
     */
    void visit(
        const std::function<void(const std::string &, const Counter &)>
            &on_counter,
        const std::function<void(const std::string &, const Gauge &)>
            &on_gauge,
        const std::function<void(const std::string &,
                                 const Histogram &)> &on_histogram)
        const;

    /**
     * Drop every gauge whose name starts with `prefix`; returns how
     * many were removed. ONLY safe for names no call site holds a
     * handle to (handles are otherwise stable for the registry's
     * lifetime), not even briefly: write such gauges with setGauge.
     * In practice these are the per-campaign worker-tagged gauges
     * (`fuzz.worker_busy_ratio.w3`), which would otherwise linger in
     * snapshots of later campaigns run with fewer workers.
     */
    size_t unregisterGaugesWithPrefix(const std::string &prefix);

    /**
     * Register `name` if needed and set it, under the registry lock.
     * Unlike `gauge(name).set(v)`, a concurrent
     * unregisterGaugesWithPrefix (another campaign starting in the
     * same process) cannot free the gauge between lookup and write.
     */
    void setGauge(const std::string &name, double value);

    /**
     * Zero every gauge whose name starts with `prefix` (names stay
     * registered, so cached handles stay valid); returns how many
     * were reset. The campaign-scoping tool for gauges that hot paths
     * hold handles to (`snowplow.cache_hit_ratio`), where unregister
     * would either dangle the handle or force a registry lookup per
     * update.
     */
    size_t resetGaugesWithPrefix(const std::string &prefix);

    /**
     * Zero every counter whose name starts with `prefix` (cached
     * handles stay valid), returning how many were reset. Campaign
     * scoping for counters hot paths hold handles to (`covmap.*`,
     * `snowplow.cache.*`), which would otherwise accumulate across
     * back-to-back campaigns in one process.
     */
    size_t resetCountersWithPrefix(const std::string &prefix);

    /**
     * Drop the contents of every histogram whose name starts with
     * `prefix` (cached handles stay valid), returning how many were
     * reset. The histogram analog of resetCountersWithPrefix: without
     * it, back-to-back campaigns in one process bleed latency
     * distributions (`exec.restore_us`, `nn.gemm_us`) into each
     * other's timelines.
     */
    size_t resetDistributionsWithPrefix(const std::string &prefix);

  private:
    /** gauge() without taking mu_ (callers hold it). */
    Gauge &gaugeLocked(const std::string &name);

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/**
 * Gate for the timed-span hot paths. Off by default; installing a
 * telemetry sink (telemetry.h) turns it on, and tests/benchmarks can
 * flip it directly.
 */
bool timingEnabled();
void setTimingEnabled(bool enabled);

/**
 * Name of a per-worker metric: `base` tagged with the worker id
 * (e.g. workerMetric("fuzz.worker_busy_ratio", 2) ==
 * "fuzz.worker_busy_ratio.w2"). Campaign workers report through this
 * so one registry holds every worker's lane side by side.
 */
std::string workerMetric(const std::string &base, size_t worker);

}  // namespace sp::obs

#endif  // SP_OBS_METRICS_H
