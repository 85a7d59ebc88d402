#include "fleet/aggregate.h"

#include <algorithm>
#include <cmath>

#include "kernel/kernel.h"
#include "prog/serialize.h"
#include "prog/validate.h"
#include "util/hash.h"

namespace sp::fleet {

namespace {

/** Add an untrusted delta into a running total unless it would wrap;
 *  false when the delta was dropped. */
bool
addNoWrap(uint64_t &total, uint64_t delta)
{
    if (delta > UINT64_MAX - total)
        return false;
    total += delta;
    return true;
}

}  // namespace

FleetAggregate::FleetAggregate(const kern::Kernel &kernel,
                               bool covmap_enabled)
    : kernel_(kernel),
      crashes_(kernel),
      coverage_(kernel.successorTable()),
      covmap_enabled_(covmap_enabled),
      plan_(covmap_enabled
                ? obs::CovMapPlan::build(kernel.blocks().size(),
                                         kernel.staticEdges())
                : obs::CovMapPlan{}),
      cov_(plan_)
{
}

MergeOutcome
FleetAggregate::merge(const LeaseResultMsg &result)
{
    MergeOutcome outcome;

    for (const WireProgram &program : result.programs) {
        // data::progKey identity: FNV-1a of the formatProg text. The
        // node sent exactly that text, so hashing it here equals
        // hashing the parsed program's re-rendering.
        const uint64_t key = fnv1a(program.text);
        if (!program_keys_.insert(key).second) {
            ++outcome.dup_programs;
            continue;
        }
        ++outcome.new_programs;
        coverage_.absorb(program.blocks, program.edges);
        seed_pool_.push_back(program.text);
        if (seed_pool_.size() > kSeedPoolCap)
            seed_pool_.pop_front();
    }

    for (const WireCrash &crash : result.crashes) {
        if (crash.bug_index >= kernel_.bugs().size())
            continue;  // not this kernel's crash; drop, don't die
        auto parsed = prog::parseProg(crash.trigger, kernel_.table());
        if (!parsed.ok() || prog::validateProg(*parsed.prog))
            continue;  // untrusted text: drop what breaks an invariant
        const size_t before = crashes_.uniqueCrashes();
        crashes_.record(crash.bug_index, *parsed.prog, crash.slot);
        if (crashes_.uniqueCrashes() > before)
            ++outcome.new_crashes;
        else
            ++outcome.dup_crashes;
    }

    if (covmap_enabled_ && result.have_cov) {
        for (const auto &[index, delta] : result.block_deltas) {
            if (index < cov_.blocks.size())
                addNoWrap(cov_.blocks[index], delta);
        }
        for (const auto &[index, delta] : result.edge_deltas) {
            if (index < cov_.edges.size())
                addNoWrap(cov_.edges[index], delta);
        }
        addNoWrap(cov_.stray, result.stray_edges);
        ++cov_windows_;
    }

    // The wire carries raw double bits: a share outside [0, 1] (NaN
    // included) would poison pmmShare() and the /status JSON it feeds.
    // Such a push, or one whose execs would wrap the weight total, is
    // dropped whole.
    const bool share_ok = std::isfinite(result.pmm_share) &&
                          result.pmm_share >= 0.0 &&
                          result.pmm_share <= 1.0;
    if (result.have_policy && share_ok &&
        addNoWrap(pmm_share_execs_, result.execs)) {
        if (policy_name_.empty())
            policy_name_ = result.policy_name;
        for (const WireArm &arm : result.arms) {
            auto &[pulls, wins] = posterior_[arm.arm];
            addNoWrap(pulls, arm.pulls);
            addNoWrap(wins, arm.wins);
        }
        pmm_share_weighted_ +=
            result.pmm_share * static_cast<double>(result.execs);
    }

    return outcome;
}

std::vector<std::string>
FleetAggregate::seedBatch(size_t max) const
{
    std::vector<std::string> batch;
    const size_t n = std::min(max, seed_pool_.size());
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i)
        batch.push_back(seed_pool_[seed_pool_.size() - n + i]);
    return batch;
}

obs::CovSummary
FleetAggregate::covSummary(uint64_t execs) const
{
    return obs::summarize(plan_, cov_, execs, cov_windows_,
                          obs::CovMap::kSummaryFrontierCap);
}

std::string
FleetAggregate::coverageJson(uint64_t execs) const
{
    if (!covmap_enabled_)
        return "{\"enabled\":false}";
    return obs::summaryJson(plan_, covSummary(execs));
}

double
FleetAggregate::pmmShare() const
{
    return pmm_share_execs_ == 0
               ? 0.0
               : pmm_share_weighted_ /
                     static_cast<double>(pmm_share_execs_);
}

std::vector<WireArm>
FleetAggregate::posteriorArms() const
{
    std::vector<WireArm> arms;
    arms.reserve(posterior_.size());
    for (const auto &[arm, counts] : posterior_) {
        if (counts.first == 0)
            continue;
        WireArm entry;
        entry.arm = arm;
        entry.pulls = counts.first;
        entry.wins = counts.second;
        arms.push_back(entry);
    }
    return arms;
}

}  // namespace sp::fleet
