/**
 * @file
 * Metrics registries: named counters, gauges and histograms shared by
 * every layer of the fuzz/train/infer stack.
 *
 * Two scopes. `Registry::global()` is the process registry: live
 * `/metrics`, flight records and the `--metrics-out` snapshot render
 * it, and process-scoped layers (inference, nn, training, dataset,
 * tracing, the learned localizer's `snowplow.*`) write it directly.
 * A campaign owns a child registry (`Registry(Registry &parent)`)
 * whose metrics write through to the same-named metrics of the parent:
 * the child reads exactly its own campaign, while the parent sees
 * every campaign as it runs. Nothing is ever reset, so global counters
 * and histograms are process-cumulative and global gauges hold the
 * last value written.
 *
 * Hot-path discipline: counters and gauges are single relaxed atomics
 * (always on, ~1 ns; one more per write-through level); histograms
 * hash the calling thread onto one of a small set of shards so
 * concurrent recorders almost never contend, and the shards are folded
 * together only at snapshot time via
 * RunningStat::merge()/Distribution::merge(). Timed spans (SP_TIMED in
 * timer.h) additionally gate on obs::timingEnabled() so a run with no
 * telemetry sink pays one relaxed load per span and nothing else.
 *
 * Metric handles returned by Registry are stable for the registry's
 * lifetime; instrumentation sites look a name up once (at construction
 * of the object owning the site, or a function-local static for
 * process-scoped sites) and keep the reference.
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
    /** `parent` (nullable) receives every increment too. */
    explicit Counter(Counter *parent = nullptr) : parent_(parent) {}

    void
    inc(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
        if (parent_ != nullptr)
            parent_->inc(n);
    }

    uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
    Counter *const parent_;
};

/** Last-write-wins instantaneous value (queue depths, rates). */
class Gauge
{
  public:
    /** `parent` (nullable) receives every write too. */
    explicit Gauge(Gauge *parent = nullptr) : parent_(parent) {}

    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
        if (parent_ != nullptr)
            parent_->set(v);
    }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
    Gauge *const parent_;
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

    /** `parent` (nullable) receives every observation too. */
    explicit Histogram(Histogram *parent = nullptr) : parent_(parent) {}

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
    Histogram *const parent_;
};

/**
 * Named metric registry. `Registry::global()` is the process-wide
 * instance every SP_TIMED span and process-scoped instrumentation site
 * uses; a child registry (one per campaign, one per fleet coordinator)
 * holds its owner's metrics and writes them through to its parent.
 */
class Registry
{
  public:
    Registry() = default;
    /** A child: each metric it creates writes through to the
     *  same-named metric of `parent`, which must outlive it. Metrics
     *  only the parent holds stay invisible to the child. */
    explicit Registry(Registry &parent) : parent_(&parent) {}
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

  private:
    Registry *const parent_ = nullptr;
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
