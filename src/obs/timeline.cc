#include "obs/timeline.h"

#include <algorithm>
#include <cmath>

#include "obs/telemetry.h"
#include "util/logging.h"

namespace sp::obs {

namespace {

/** JSON number literal; non-finite values (empty-stat min/max) -> 0. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/** Snapshot `metrics` into `sample`: non-zero counters and gauges,
 *  histograms with at least one observation (moments only). */
void
sampleRegistry(const Registry &metrics, TimelineSample &sample)
{
    metrics.visit(
        [&sample](const std::string &name, const Counter &counter) {
            if (counter.value() != 0)
                sample.counters[name] = counter.value();
        },
        [&sample](const std::string &name, const Gauge &gauge) {
            const double v = gauge.value();
            if (v != 0.0)
                sample.gauges[name] = v;
        },
        [&sample](const std::string &name, const Histogram &hist) {
            const RunningStat stat = hist.stat();
            if (stat.count() == 0)
                return;
            TimelineHist h;
            h.count = stat.count();
            h.mean = stat.mean();
            h.min = stat.min();
            h.max = stat.max();
            sample.hists[name] = h;
        });
}

/** `"execs":..,"edges":..` — the tick's core campaign facts. */
void
appendTickCore(std::string &out, const TimelineTick &tick)
{
    out += "\"execs\":";
    out += std::to_string(tick.execs);
    out += ",\"edges\":";
    out += std::to_string(tick.edges);
    out += ",\"blocks\":";
    out += std::to_string(tick.blocks);
    out += ",\"crashes\":";
    out += std::to_string(tick.crashes);
    out += ",\"corpus\":";
    out += std::to_string(tick.corpus_size);
}

/** `,"cov":{..}` when the tick carries a covmap summary. */
void
appendCov(std::string &out, const TimelineTick &tick)
{
    if (!tick.cov)
        return;
    out += ",\"cov\":{\"blocks_hit\":";
    out += std::to_string(tick.cov->blocks_hit);
    out += ",\"edges_hit\":";
    out += std::to_string(tick.cov->edges_hit);
    out += ",\"total_block_hits\":";
    out += std::to_string(tick.cov->total_block_hits);
    out += ",\"frontier_size\":";
    out += std::to_string(tick.cov->frontier_size);
    out += ",\"stray_edges\":";
    out += std::to_string(tick.cov->stray_edges);
    out += '}';
}

}  // namespace

TimelineRecorder::TimelineRecorder(TimelineOptions opts) : opts_(opts) {}

TimelineRecorder::~TimelineRecorder()
{
    if (log_ != nullptr)
        std::fclose(log_);
}

bool
TimelineRecorder::openLog(const std::string &path,
                          const std::string &extra_header_json)
{
    std::lock_guard<std::mutex> lock(mu_);
    SP_ASSERT(log_ == nullptr, "timeline log already open");
    log_ = std::fopen(path.c_str(), "w");
    if (log_ == nullptr)
        return false;

    std::string header;
    header.reserve(128);
    header += "{\"type\":\"timeline_header\",\"version\":";
    header += std::to_string(kFormatVersion);
    header += ",\"ring_capacity\":";
    header += std::to_string(opts_.ring_capacity);
    header += ",\"timing\":";
    header += timingEnabled() ? "true" : "false";
    if (!extra_header_json.empty()) {
        header += ',';
        header += extra_header_json;
    }
    header += "}\n";
    std::fwrite(header.data(), 1, header.size(), log_);
    return true;
}

void
TimelineRecorder::writeSampleLine(const TimelineSample &sample)
{
    // Delta state updates even with no log open so the encoding is
    // independent of whether anyone is watching.
    std::string line;
    line.reserve(512);
    line += "{\"type\":\"timeline_sample\",";
    appendTickCore(line, sample.tick);
    appendCov(line, sample.tick);

    if (sample.tick.have_policy) {
        line += ",\"policy\":{\"name\":";
        line += jsonQuote(sample.tick.policy_name);
        line += ",\"pmm_share\":";
        line += jsonNumber(sample.tick.pmm_share);
        line += ",\"arms\":[";
        bool first = true;
        for (const TimelineArm &arm : sample.tick.arms) {
            const auto it = last_arms_.find(arm.arm);
            const uint64_t dp =
                arm.pulls - (it == last_arms_.end() ? 0 : it->second.pulls);
            const uint64_t dw =
                arm.wins - (it == last_arms_.end() ? 0 : it->second.wins);
            if (dp == 0 && dw == 0)
                continue;
            if (!first)
                line += ',';
            first = false;
            line += '[';
            line += std::to_string(arm.arm);
            line += ',';
            line += std::to_string(dp);
            line += ',';
            line += std::to_string(dw);
            line += ']';
        }
        line += "]}";
        last_arms_.clear();
        for (const TimelineArm &arm : sample.tick.arms)
            last_arms_[arm.arm] = arm;
    }

    line += ",\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : sample.counters) {
        const auto it = last_counters_.find(name);
        const uint64_t prev = it == last_counters_.end() ? 0 : it->second;
        const uint64_t delta = value >= prev ? value - prev : value;
        if (delta == 0)
            continue;
        line += (first ? "" : ",");
        line += jsonQuote(name);
        line += ':';
        line += std::to_string(delta);
        first = false;
    }
    line += "},\"gauges\":{";
    first = true;
    for (const auto &[name, value] : sample.gauges) {
        const auto it = last_gauges_.find(name);
        const double prev = it == last_gauges_.end() ? 0.0 : it->second;
        if (value == prev)
            continue;
        line += (first ? "" : ",");
        line += jsonQuote(name);
        line += ':';
        line += jsonNumber(value);
        first = false;
    }
    line += "},\"hists\":{";
    first = true;
    for (const auto &[name, hist] : sample.hists) {
        const auto it = last_hist_counts_.find(name);
        const uint64_t prev =
            it == last_hist_counts_.end() ? 0 : it->second;
        const uint64_t delta =
            hist.count >= prev ? hist.count - prev : hist.count;
        if (delta == 0)
            continue;
        line += (first ? "" : ",");
        line += jsonQuote(name);
        line += ":[";
        line += std::to_string(delta);
        line += ',';
        line += jsonNumber(hist.mean);
        line += ',';
        line += jsonNumber(hist.min);
        line += ',';
        line += jsonNumber(hist.max);
        line += ']';
        first = false;
    }
    line += '}';
    if (sample.wall_us != 0) {
        line += ",\"wall_us\":";
        line += std::to_string(sample.wall_us);
    }
    line += "}\n";

    last_counters_ = sample.counters;
    last_gauges_ = sample.gauges;
    last_hist_counts_.clear();
    for (const auto &[name, hist] : sample.hists)
        last_hist_counts_[name] = hist.count;

    if (log_ != nullptr)
        std::fwrite(line.data(), 1, line.size(), log_);
}

void
TimelineRecorder::pushLocked(TimelineSample sample, Registry &metrics)
{
    ring_.push_back(std::move(sample));
    while (opts_.ring_capacity > 0 && ring_.size() > opts_.ring_capacity)
        ring_.pop_front();
    ++total_samples_;
    metrics.gauge("timeline.ring_size")
        .set(static_cast<double>(ring_.size()));
}

void
TimelineRecorder::onCheckpoint(const TimelineTick &tick, Registry &metrics)
{
    const bool timed = timingEnabled();
    const uint64_t start_us = timed ? monotonicMicros() : 0;

    std::lock_guard<std::mutex> lock(mu_);
    if (finalized_)
        return;
    metrics.counter("timeline.samples").inc();
    TimelineSample sample;
    sample.tick = tick;
    sampleRegistry(metrics, sample);
    if (timed) {
        sample.wall_us = monotonicMicros() - start_us;
        metrics.histogram("timeline.sample_us")
            .record(static_cast<double>(sample.wall_us));
    }
    writeSampleLine(sample);
    pushLocked(std::move(sample), metrics);
}

void
TimelineRecorder::finalize(const TimelineTick &tick, Registry &metrics)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (finalized_)
        return;
    finalized_ = true;

    metrics.counter("timeline.samples").inc();
    TimelineSample sample;
    sample.tick = tick;
    sampleRegistry(metrics, sample);
    pushLocked(sample, metrics);

    if (log_ == nullptr)
        return;

    // The final record is self-contained (cumulative, not deltas) and
    // is where the one full percentile pass runs. End-of-campaign
    // gauges are deliberately absent: the wall-clock-derived ones
    // (execs/sec, busy ratios) are machine state, not campaign state,
    // and everything deterministic is already in the tick sections.
    std::string line;
    line.reserve(1024);
    line += "{\"type\":\"timeline_final\",";
    appendTickCore(line, sample.tick);
    line += ",\"samples\":";
    line += std::to_string(total_samples_);
    appendCov(line, sample.tick);
    if (sample.tick.have_policy) {
        line += ",\"policy\":{\"name\":";
        line += jsonQuote(sample.tick.policy_name);
        line += ",\"pmm_share\":";
        line += jsonNumber(sample.tick.pmm_share);
        line += ",\"arms\":[";
        for (size_t i = 0; i < sample.tick.arms.size(); ++i) {
            const TimelineArm &arm = sample.tick.arms[i];
            if (i != 0)
                line += ',';
            line += '[';
            line += std::to_string(arm.arm);
            line += ',';
            line += std::to_string(arm.pulls);
            line += ',';
            line += std::to_string(arm.wins);
            line += ']';
        }
        line += "]}";
    }
    line += ",\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : sample.counters) {
        line += (first ? "" : ",");
        line += jsonQuote(name);
        line += ':';
        line += std::to_string(value);
        first = false;
    }
    line += "},\"hists\":{";
    first = true;
    metrics.visit(
        nullptr, nullptr,
        [&line, &first](const std::string &name, const Histogram &hist) {
            const HistogramSnapshot snap = hist.snapshot();
            if (snap.stat.count() == 0)
                return;
            line += (first ? "" : ",");
            line += jsonQuote(name);
            line += ":{\"count\":";
            line += std::to_string(snap.stat.count());
            line += ",\"mean\":";
            line += jsonNumber(snap.stat.mean());
            line += ",\"min\":";
            line += jsonNumber(snap.stat.min());
            line += ",\"max\":";
            line += jsonNumber(snap.stat.max());
            line += ",\"stddev\":";
            line += jsonNumber(snap.stat.stddev());
            line += ",\"p50\":";
            line += jsonNumber(snap.samples.percentile(50));
            line += ",\"p90\":";
            line += jsonNumber(snap.samples.percentile(90));
            line += ",\"p99\":";
            line += jsonNumber(snap.samples.percentile(99));
            line += '}';
            first = false;
        });
    line += "}}\n";
    std::fwrite(line.data(), 1, line.size(), log_);
    std::fclose(log_);
    log_ = nullptr;
}

size_t
TimelineRecorder::sampleCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<size_t>(total_samples_);
}

std::vector<TimelineSample>
TimelineRecorder::samples() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return {ring_.begin(), ring_.end()};
}

std::string
TimelineRecorder::recentJson(size_t max_samples) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    out.reserve(1024);
    out += "{\"enabled\":true,\"samples\":";
    out += std::to_string(total_samples_);
    out += ",\"ring_capacity\":";
    out += std::to_string(opts_.ring_capacity);
    out += ",\"window\":[";
    const size_t take = std::min(max_samples, ring_.size());
    for (size_t i = ring_.size() - take; i < ring_.size(); ++i) {
        const TimelineSample &sample = ring_[i];
        if (i != ring_.size() - take)
            out += ',';
        out += '{';
        appendTickCore(out, sample.tick);
        appendCov(out, sample.tick);
        if (sample.tick.have_policy) {
            out += ",\"policy\":{\"name\":";
            out += jsonQuote(sample.tick.policy_name);
            out += ",\"pmm_share\":";
            out += jsonNumber(sample.tick.pmm_share);
            out += ",\"arms_active\":";
            out += std::to_string(sample.tick.arms.size());
            out += '}';
        }
        out += ",\"counters\":{";
        bool first = true;
        for (const auto &[name, value] : sample.counters) {
            out += (first ? "" : ",");
            out += jsonQuote(name);
            out += ':';
            out += std::to_string(value);
            first = false;
        }
        out += "},\"gauges\":{";
        first = true;
        for (const auto &[name, value] : sample.gauges) {
            out += (first ? "" : ",");
            out += jsonQuote(name);
            out += ':';
            out += jsonNumber(value);
            first = false;
        }
        out += "},\"hists\":{";
        first = true;
        for (const auto &[name, hist] : sample.hists) {
            out += (first ? "" : ",");
            out += jsonQuote(name);
            out += ":[";
            out += std::to_string(hist.count);
            out += ',';
            out += jsonNumber(hist.mean);
            out += ',';
            out += jsonNumber(hist.min);
            out += ',';
            out += jsonNumber(hist.max);
            out += ']';
            first = false;
        }
        out += '}';
        if (sample.wall_us != 0) {
            out += ",\"wall_us\":";
            out += std::to_string(sample.wall_us);
        }
        out += '}';
    }
    out += "]}";
    return out;
}

}  // namespace sp::obs
