/**
 * @file
 * Differential campaign comparison: the offline half of the timeline
 * observatory (obs/timeline.h).
 *
 * A TimelineLog loads one delta-encoded `--timeline-out` artifact and
 * reconstructs the cumulative per-sample state; compare() aligns two
 * logs on their shared virtual-time grid and turns the pair into a
 * versioned `compare_report` — per-metric deltas, coverage-curve
 * comparisons (final edges, AUC, time-to-X%-of-baseline-edges),
 * latency-histogram shifts, and policy pmm-share / arm-posterior
 * divergence — with configurable regression thresholds. Virtual time
 * makes the alignment exact: both runs checkpoint on the same executed-
 * program grid, so sample i of A and sample i of B describe the same
 * amount of work regardless of machine or wall-clock speed.
 *
 * Verdict semantics: only the coverage curve and (when both artifacts
 * were recorded with timing enabled) latency p50 shifts produce
 * regression verdicts; counter deltas, crash counts and policy
 * divergence are informational — two policies legitimately produce
 * different operator mixes. A compared against itself yields zero
 * deltas and no regressions (the compare self-test).
 */
#ifndef SP_ANALYSIS_COMPARE_H
#define SP_ANALYSIS_COMPARE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sp::analysis {

/** Cumulative state reconstructed at one timeline sample. */
struct TimelineLogSample
{
    uint64_t execs = 0;
    uint64_t edges = 0;
    uint64_t blocks = 0;
    uint64_t crashes = 0;
    uint64_t corpus = 0;

    bool have_policy = false;
    std::string policy_name;
    double pmm_share = 0.0;
    /** arm -> (pulls, wins), cumulative. */
    std::map<int, std::pair<uint64_t, uint64_t>> arms;

    /** Cumulative counter values (reconstructed from deltas). */
    std::map<std::string, uint64_t> counters;
    /** Last emitted gauge values. */
    std::map<std::string, double> gauges;
    /** hist -> cumulative count. */
    std::map<std::string, uint64_t> hist_counts;
};

/** One histogram's final-record summary (full percentiles). */
struct TimelineFinalHist
{
    uint64_t count = 0;
    double mean = 0, min = 0, max = 0, stddev = 0;
    double p50 = 0, p90 = 0, p99 = 0;
};

/** One parsed `--timeline-out` artifact. */
struct TimelineLog
{
    std::string path;
    std::string error;  ///< empty = loaded
    int version = 0;
    bool timing = false;  ///< artifact recorded with timing enabled

    /** Per-grid-boundary samples, cumulative, ascending execs. */
    std::vector<TimelineLogSample> samples;

    bool has_final = false;
    TimelineLogSample final_state;  ///< the timeline_final record
    std::map<std::string, TimelineFinalHist> final_hists;

    bool ok() const { return error.empty(); }

    /** The run's end state: the final record, else the last sample. */
    const TimelineLogSample &end() const;

    static TimelineLog load(const std::string &path);
};

/** Regression thresholds (all ratios relative to run A). */
struct CompareOptions
{
    /** B regressed when final edges < A's * (1 - tol). */
    double final_edges_tol = 0.02;
    /** B regressed when coverage AUC < A's * (1 - tol). */
    double auc_tol = 0.05;
    /** Fraction of A's final edges for the time-to-X comparison. */
    double time_to_frac = 0.90;
    /** B regressed when it needs > A's execs * (1 + tol) to get there. */
    double time_to_tol = 0.25;
    /** B's latency p50 regressed beyond A's * (1 + tol); only applied
     *  when both artifacts were recorded with timing enabled. */
    double latency_tol = 0.25;
};

/** Outcome of one gated comparison. */
enum class Verdict { Improved, Ok, Regressed, Skipped };

const char *verdictName(Verdict v);

/** One compared scalar (curve point, counter, latency p50). */
struct MetricDelta
{
    std::string name;
    double a = 0;
    double b = 0;
    Verdict verdict = Verdict::Ok;  ///< Ok for informational rows
};

/** The full differential report. */
struct CompareReport
{
    /** compare_report format version. */
    static constexpr int kFormatVersion = 1;

    std::string path_a;
    std::string path_b;
    CompareOptions opts;

    size_t aligned_samples = 0;  ///< shared virtual-time grid points
    uint64_t grid_end = 0;       ///< last aligned execs value

    /** Gated coverage-curve comparisons. */
    MetricDelta final_edges;
    MetricDelta coverage_auc;
    /** Execs to reach time_to_frac of A's final edges (0 = never). */
    MetricDelta time_to_target;
    uint64_t target_edges = 0;

    /** Gated latency shifts (final-record p50s of `*_us` histograms
     *  present in both); empty when either side lacks timing. */
    std::vector<MetricDelta> latencies;

    /** Informational: final cumulative counter deltas (union). */
    std::vector<MetricDelta> counters;
    /** Informational: unique crashes at end. */
    MetricDelta crashes;

    bool have_policy = false;
    std::string policy_a;
    std::string policy_b;
    double pmm_share_a = 0;
    double pmm_share_b = 0;
    /** Total-variation distance between normalized arm-pull
     *  distributions at the end state (0 = identical posteriors). */
    double arm_divergence = 0;

    /** One line per regressed verdict; empty = no regression. */
    std::vector<std::string> regressions;

    bool regressed() const { return !regressions.empty(); }
};

/** Align + compare two loaded artifacts (both must be ok()). */
CompareReport compare(const TimelineLog &a, const TimelineLog &b,
                      const CompareOptions &opts = {});

/** The versioned machine report ("type":"compare_report"). */
std::string compareJson(const CompareReport &report);

/** Human-readable verdict table + regression summary. */
std::string compareText(const CompareReport &report);

}  // namespace sp::analysis

#endif  // SP_ANALYSIS_COMPARE_H
