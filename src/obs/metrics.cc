#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>
#include <thread>

#include "obs/telemetry.h"
#include "util/logging.h"

namespace sp::obs {

namespace {

std::atomic<bool> g_timing_enabled{false};

/** JSON number literal; non-finite values (empty-metric min/max) -> 0. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

}  // namespace

bool
timingEnabled()
{
    return g_timing_enabled.load(std::memory_order_relaxed);
}

void
setTimingEnabled(bool enabled)
{
    g_timing_enabled.store(enabled, std::memory_order_relaxed);
}

Histogram::Shard &
Histogram::shardForThisThread()
{
    static thread_local const size_t slot =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return shards_[slot % kShards];
}

void
Histogram::record(double x)
{
    if (parent_ != nullptr)
        parent_->record(x);
    Shard &shard = shardForThisThread();
    std::lock_guard<std::mutex> guard(shard.mu);
    shard.stat.add(x);
    if (shard.samples.count() < kShardSampleCap) {
        shard.samples.add(x);
        return;
    }
    // Reservoir sampling keeps the retained set uniform over the whole
    // stream once the cap is hit (Vitter's algorithm R, LCG-driven).
    shard.lcg = shard.lcg * 6364136223846793005ULL +
                1442695040888963407ULL;
    const uint64_t j = shard.lcg % shard.stat.count();
    if (j < kShardSampleCap)
        shard.samples.replace(static_cast<size_t>(j), x);
}

uint64_t
Histogram::count() const
{
    uint64_t total = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> guard(shard.mu);
        total += shard.stat.count();
    }
    return total;
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot merged;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> guard(shard.mu);
        merged.stat.merge(shard.stat);
        merged.samples.merge(shard.samples);
    }
    return merged;
}

RunningStat
Histogram::stat() const
{
    RunningStat merged;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> guard(shard.mu);
        merged.merge(shard.stat);
    }
    return merged;
}

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> guard(mu_);
    SP_ASSERT(gauges_.count(name) == 0 && histograms_.count(name) == 0,
              "metric name registered with a different kind");
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        // The parent never locks a child, so taking its lock under
        // ours cannot deadlock.
        Counter *parent =
            parent_ != nullptr ? &parent_->counter(name) : nullptr;
        it = counters_.emplace(name, std::make_unique<Counter>(parent))
                 .first;
    }
    return *it->second;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> guard(mu_);
    SP_ASSERT(counters_.count(name) == 0 && histograms_.count(name) == 0,
              "metric name registered with a different kind");
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        Gauge *parent = parent_ != nullptr ? &parent_->gauge(name) : nullptr;
        it = gauges_.emplace(name, std::make_unique<Gauge>(parent)).first;
    }
    return *it->second;
}

Histogram &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> guard(mu_);
    SP_ASSERT(counters_.count(name) == 0 && gauges_.count(name) == 0,
              "metric name registered with a different kind");
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        Histogram *parent =
            parent_ != nullptr ? &parent_->histogram(name) : nullptr;
        it = histograms_.emplace(name, std::make_unique<Histogram>(parent))
                 .first;
    }
    return *it->second;
}

std::string
Registry::snapshotJson() const
{
    std::lock_guard<std::mutex> guard(mu_);
    std::ostringstream out;
    out << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, counter] : counters_) {
        out << (first ? "" : ",") << jsonQuote(name) << ":"
            << counter->value();
        first = false;
    }
    out << "},\"gauges\":{";
    first = true;
    for (const auto &[name, gauge] : gauges_) {
        out << (first ? "" : ",") << jsonQuote(name) << ":"
            << jsonNumber(gauge->value());
        first = false;
    }
    out << "},\"histograms\":{";
    first = true;
    for (const auto &[name, histogram] : histograms_) {
        const HistogramSnapshot snap = histogram->snapshot();
        out << (first ? "" : ",") << jsonQuote(name) << ":{"
            << "\"count\":" << snap.stat.count()
            << ",\"mean\":" << jsonNumber(snap.stat.mean())
            << ",\"min\":" << jsonNumber(snap.stat.min())
            << ",\"max\":" << jsonNumber(snap.stat.max())
            << ",\"stddev\":" << jsonNumber(snap.stat.stddev())
            << ",\"p50\":" << jsonNumber(snap.samples.percentile(50))
            << ",\"p90\":" << jsonNumber(snap.samples.percentile(90))
            << ",\"p95\":" << jsonNumber(snap.samples.percentile(95))
            << ",\"p99\":" << jsonNumber(snap.samples.percentile(99))
            << "}";
        first = false;
    }
    out << "}}";
    return out.str();
}

void
Registry::visit(
    const std::function<void(const std::string &, const Counter &)>
        &on_counter,
    const std::function<void(const std::string &, const Gauge &)>
        &on_gauge,
    const std::function<void(const std::string &, const Histogram &)>
        &on_histogram) const
{
    std::lock_guard<std::mutex> guard(mu_);
    if (on_counter) {
        for (const auto &[name, counter] : counters_)
            on_counter(name, *counter);
    }
    if (on_gauge) {
        for (const auto &[name, gauge] : gauges_)
            on_gauge(name, *gauge);
    }
    if (on_histogram) {
        for (const auto &[name, histogram] : histograms_)
            on_histogram(name, *histogram);
    }
}

std::string
workerMetric(const std::string &base, size_t worker)
{
    return base + ".w" + std::to_string(worker);
}

}  // namespace sp::obs
