/**
 * @file
 * Campaign timeline observatory: virtual-time metric history.
 *
 * The metrics registry, the covmap summary, and the policy posterior
 * are all point-in-time views; trajectory claims (§5.5 throughput
 * parity, fig. 6 coverage growth) need the *history* — how those views
 * evolve over a campaign — recorded on a grid two runs can be aligned
 * on. The TimelineRecorder supplies that history with the repo's
 * checkpoint discipline:
 *
 *  - the serialized checkpoint owner (the same context that merges
 *    CovShards and Thompson posteriors, see fuzz/campaign.cc) hands the
 *    recorder one TimelineTick per virtual-time grid boundary together
 *    with the campaign's own registry; the recorder samples that whole
 *    registry (counters, gauges, cheap histogram moments) under that
 *    serialization, so samples land exactly on the grid regardless of
 *    worker count and describe this campaign alone — process-scoped
 *    families (inference, nn, the learned localizer) live in the
 *    global registry and never appear;
 *  - virtual time is the clock: a `--workers 1` campaign with no
 *    telemetry sink produces a bit-identical JSONL artifact run over
 *    run (every wall-clock-derived metric is timingEnabled()-gated, and
 *    `wall_us` is only emitted when a sink enabled timing). Under
 *    concurrency the tick facts stay prefix-consistent while registry
 *    values are approximate at window boundaries — exactly the covmap
 *    window contract;
 *  - a bounded in-memory ring keeps the recent window for the
 *    `/timeline` endpoint and flight-recorder embeds; the JSONL
 *    artifact (`fuzz --timeline-out`) is delta-encoded and
 *    zero-suppressed (counters as non-zero deltas, gauges on change,
 *    histograms when their count moved) so long campaigns stay small;
 *  - per-sample histogram summaries use Histogram::stat() — exact
 *    moments, O(shards) — and full percentile summaries are computed
 *    once, in the final record, keeping the per-checkpoint cost under
 *    1% of a campaign slot (BM_TimelineOverhead gates this).
 *
 * The offline half (src/analysis/compare.h) aligns two artifacts on
 * the grid and turns them into a regression verdict.
 */
#ifndef SP_OBS_TIMELINE_H
#define SP_OBS_TIMELINE_H

#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/covmap.h"
#include "obs/metrics.h"

namespace sp::obs {

/** One policy arm's merged posterior counts at a sample point. */
struct TimelineArm
{
    int arm = 0;
    uint64_t pulls = 0;
    uint64_t wins = 0;
};

/**
 * Campaign facts the fuzz layer supplies per grid boundary. sp_obs
 * types only: sp_obs stays free of fuzz/policy types, and the builder
 * (fuzz::makeTimelineTick) owns the mapping.
 */
struct TimelineTick
{
    uint64_t execs = 0;        ///< virtual time (grid boundary)
    uint64_t edges = 0;        ///< boolean corpus edge coverage
    uint64_t blocks = 0;
    uint64_t crashes = 0;      ///< unique crashes
    uint64_t corpus_size = 0;

    /** The covmap summary at this boundary, when profiling. */
    std::optional<CovSummary> cov;

    bool have_policy = false;
    std::string policy_name;
    double pmm_share = 0.0;
    /** Non-zero-pull arms, ascending arm index. */
    std::vector<TimelineArm> arms;
};

/** Cheap per-sample histogram summary (exact moments, no samples). */
struct TimelineHist
{
    uint64_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/** One recorded sample: the tick plus the registry state. */
struct TimelineSample
{
    TimelineTick tick;
    /** Counter values (campaign-cumulative), non-zero entries only. */
    std::map<std::string, uint64_t> counters;
    /** Non-zero gauge values (absolute). */
    std::map<std::string, double> gauges;
    /** Histograms with at least one recorded value. */
    std::map<std::string, TimelineHist> hists;
    /** Sampling cost; 0 unless timingEnabled(). */
    uint64_t wall_us = 0;
};

/** Recorder configuration. */
struct TimelineOptions
{
    /** Samples retained in memory for /timeline and flight records. */
    size_t ring_capacity = 128;
};

/**
 * The campaign-wide metric-history accumulator. onCheckpoint() and
 * finalize() must be called from serialized contexts (the in-order
 * checkpoint owner / after workers joined); recentJson() and the
 * accessors are safe from any thread concurrently with sampling.
 */
class TimelineRecorder
{
  public:
    /** JSONL artifact format version (timeline_header "version"). */
    static constexpr int kFormatVersion = 1;

    explicit TimelineRecorder(TimelineOptions opts = {});
    ~TimelineRecorder();

    TimelineRecorder(const TimelineRecorder &) = delete;
    TimelineRecorder &operator=(const TimelineRecorder &) = delete;

    /**
     * Open the delta-encoded JSONL artifact and write its header line.
     * `extra_header_json` is spliced into the header object (e.g.
     * `"campaign":{"seed":7,...}`); pass "" for none. Returns false
     * (and stays closed) when the file cannot be opened.
     */
    bool openLog(const std::string &path,
                 const std::string &extra_header_json = "");

    /**
     * Record one sample on the virtual-time grid: snapshot `metrics`
     * (the campaign's registry, which also receives the `timeline.*`
     * metrics), push the ring, append one `timeline_sample` line to
     * the artifact. Serialized-owner only; no-op once finalized.
     */
    void onCheckpoint(const TimelineTick &tick, Registry &metrics);

    /**
     * Final sample + `timeline_final` line (cumulative counters, full
     * histogram percentile summaries — the one place a full
     * Histogram::snapshot() runs) + log close. Idempotent; safe
     * without an open log (the ring still gets the final sample).
     */
    void finalize(const TimelineTick &tick, Registry &metrics);

    /** Samples recorded so far (including the final one). */
    size_t sampleCount() const;

    /** Copy of the retained ring, oldest first (tests/inspection). */
    std::vector<TimelineSample> samples() const;

    /**
     * The /timeline payload: {"enabled":true,"samples":N,
     * "ring_capacity":C,"window":[...]} with at most `max_samples`
     * newest samples, oldest first. Counters are campaign-cumulative,
     * gauges absolute, histograms [count,mean,min,max].
     */
    std::string recentJson(size_t max_samples = 16) const;

  private:
    /** Append one delta-encoded sample line; caller holds mu_. */
    void writeSampleLine(const TimelineSample &sample);
    /** Ring push with eviction; caller holds mu_. */
    void pushLocked(TimelineSample sample, Registry &metrics);

    const TimelineOptions opts_;

    mutable std::mutex mu_;
    std::deque<TimelineSample> ring_;
    uint64_t total_samples_ = 0;
    /** Last emitted state for artifact delta encoding. */
    std::map<std::string, uint64_t> last_counters_;
    std::map<std::string, double> last_gauges_;
    std::map<std::string, uint64_t> last_hist_counts_;
    std::map<int, TimelineArm> last_arms_;
    std::FILE *log_ = nullptr;
    bool finalized_ = false;
};

}  // namespace sp::obs

#endif  // SP_OBS_TIMELINE_H
