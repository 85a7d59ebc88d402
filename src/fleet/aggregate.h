/**
 * @file
 * The coordinator's merge core: every artifact a lease result carries
 * folds into one FleetAggregate under the coordinator's lock.
 *
 * Every merge is commutative and idempotent where it must be:
 *
 *  - programs are content-addressed by the FNV-1a of their formatProg
 *    text (data::progKey's identity), so a re-sent program is a no-op;
 *    their blocks and edges fold into an exec::CoverageTotal, the
 *    union type the campaign corpus keeps too;
 *  - crashes dedup through fuzz::CrashLog's bug-index key — the same
 *    path a single-process campaign uses — so no crash exists twice
 *    fleet-wide;
 *  - covmap deltas add into one obs::CovCounts — the merged hit state
 *    a campaign's CovMap keeps — summarized by obs::summarize and
 *    served by obs::summaryJson, exactly as a single-process campaign's
 *    /coverage is; posterior deltas add per arm. Both sums are
 *    independent of node count and arrival order (the lease-grid
 *    analog of the worker-shard merge discipline covmap_test/
 *    policy_test pin);
 *  - numbers from a node are untrusted: an out-of-range index, a count
 *    delta that would wrap its running total, and a posterior push
 *    whose pmm_share is not a finite share in [0, 1] are dropped.
 *
 * Not thread-safe: the coordinator serializes merges, exactly like
 * the campaign engine's in-order checkpoint owner.
 */
#ifndef SP_FLEET_AGGREGATE_H
#define SP_FLEET_AGGREGATE_H

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "exec/coverage.h"
#include "fleet/wire.h"
#include "fuzz/crash.h"
#include "obs/covmap.h"

namespace sp::fleet {

/** What one merge() changed (the ResultAck + counter feed). */
struct MergeOutcome
{
    uint64_t new_programs = 0;
    uint64_t dup_programs = 0;
    uint64_t new_crashes = 0;
    uint64_t dup_crashes = 0;
};

class FleetAggregate
{
  public:
    /** Programs retained for seed batches (most recent first out). */
    static constexpr size_t kSeedPoolCap = 256;

    FleetAggregate(const kern::Kernel &kernel, bool covmap_enabled);

    /** Fold one lease result in. Caller serializes. */
    MergeOutcome merge(const LeaseResultMsg &result);

    /** @name Global coverage / corpus / crash views */
    /** @{ */
    size_t corpusSize() const { return program_keys_.size(); }
    size_t edgeCount() const { return coverage_.edgeCount(); }
    size_t blockCount() const { return coverage_.blockCount(); }
    size_t uniqueCrashes() const { return crashes_.uniqueCrashes(); }
    const fuzz::CrashLog &crashes() const { return crashes_; }
    /** @} */

    /** Up to `max` most recently admitted program texts. */
    std::vector<std::string> seedBatch(size_t max) const;

    /** @name Covmap aggregate (lease-grid merged hit counts) */
    /** @{ */
    bool covmapEnabled() const { return covmap_enabled_; }
    const obs::CovCounts &covCounts() const { return cov_; }
    /** obs::summarize of the merged counts at virtual time `execs`,
     *  one window per merged lease result. */
    obs::CovSummary covSummary(uint64_t execs) const;
    /** The /coverage JSON payload (obs::summaryJson). */
    std::string coverageJson(uint64_t execs) const;
    /** @} */

    /** @name Policy posterior aggregate */
    /** @{ */
    bool havePolicy() const { return !policy_name_.empty(); }
    const std::string &policyName() const { return policy_name_; }
    /** Execs-weighted mean of node-reported model shares. */
    double pmmShare() const;
    /** Arms with nonzero pulls, ascending arm id (tick payload). */
    std::vector<WireArm> posteriorArms() const;
    /** @} */

  private:
    const kern::Kernel &kernel_;
    fuzz::CrashLog crashes_;

    std::unordered_set<uint64_t> program_keys_;
    std::deque<std::string> seed_pool_;  ///< admitted texts, oldest first
    exec::CoverageTotal coverage_;  ///< union of admitted programs

    bool covmap_enabled_;
    obs::CovMapPlan plan_;
    obs::CovCounts cov_;
    uint64_t cov_windows_ = 0;

    std::string policy_name_;
    std::map<uint32_t, std::pair<uint64_t, uint64_t>> posterior_;
    double pmm_share_weighted_ = 0.0;
    uint64_t pmm_share_execs_ = 0;
};

}  // namespace sp::fleet

#endif  // SP_FLEET_AGGREGATE_H
