/**
 * @file
 * Campaign report rendering over a loaded CovProfile: the machine-
 * readable analyze report (`--out`, validated by
 * ci/schemas/analyze_report.schema.json), the human-readable heat
 * report printed by `snowplow_cli analyze`, and the target-set
 * round-trip `fuzz --directed-from` consumes.
 */
#ifndef SP_ANALYSIS_REPORT_H
#define SP_ANALYSIS_REPORT_H

#include <string>
#include <vector>

#include "analysis/frontier.h"

namespace sp::analysis {

/** Everything `analyze` derives from one snapshot log. */
struct Analysis
{
    CovProfile profile;
    /** obs::summarize of the profile's final counts. */
    obs::CovSummary summary;
    HeatThresholds thresholds;
    /** Blocks per heat band, indexed by static_cast<size_t>(Heat). */
    size_t band_counts[4] = {0, 0, 0, 0};
    std::vector<FrontierTarget> targets;     ///< ranked, capped
    std::vector<SubsystemHeat> subsystems;   ///< empty without a kernel
};

/**
 * Run the full analysis: heat bands, ranked frontier targets
 * (truncated to `target_cap` when > 0), and — with a kernel —
 * per-subsystem aggregation and target attribution.
 */
Analysis analyze(CovProfile profile, const kern::Kernel *kernel,
                 size_t target_cap = 0);

/** The machine-readable report (one JSON object, schema-checked). */
std::string reportJson(const Analysis &analysis,
                       const std::string &source_path);

/** The human-readable heat report (`analyze` stdout). */
std::string reportText(const Analysis &analysis,
                       const std::string &source_path);

/**
 * Extract the target block list from a report file written by
 * reportJson (the `--directed-from` input). On failure returns empty
 * and sets `error`.
 */
std::vector<uint32_t> loadTargets(const std::string &path,
                                  std::string *error);

}  // namespace sp::analysis

#endif  // SP_ANALYSIS_REPORT_H
