#include "fleet/aggregate.h"

#include <algorithm>

#include "kernel/kernel.h"
#include "prog/serialize.h"
#include "prog/validate.h"
#include "util/hash.h"

namespace sp::fleet {

FleetAggregate::FleetAggregate(const kern::Kernel &kernel,
                               bool covmap_enabled)
    : kernel_(kernel),
      crashes_(kernel),
      covmap_enabled_(covmap_enabled),
      plan_(covmap_enabled
                ? obs::CovMapPlan::build(kernel.blocks().size(),
                                         kernel.staticEdges())
                : obs::CovMapPlan{})
{
    block_hits_.assign(plan_.num_blocks, 0);
    edge_hits_.assign(plan_.numEdges(), 0);
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
        for (const uint32_t block : program.blocks)
            blocks_.insert(block);
        for (const uint64_t edge : program.edges)
            edges_.insert(edge);
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
            if (index < block_hits_.size())
                block_hits_[index] += delta;
        }
        for (const auto &[index, delta] : result.edge_deltas) {
            if (index < edge_hits_.size())
                edge_hits_[index] += delta;
        }
        stray_edges_ += result.stray_edges;
        ++cov_windows_;
    }

    if (result.have_policy) {
        if (policy_name_.empty())
            policy_name_ = result.policy_name;
        for (const WireArm &arm : result.arms) {
            auto &[pulls, wins] = posterior_[arm.arm];
            pulls += arm.pulls;
            wins += arm.wins;
        }
        pmm_share_weighted_ +=
            result.pmm_share * static_cast<double>(result.execs);
        pmm_share_execs_ += result.execs;
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
FleetAggregate::covSummary(uint64_t execs, size_t cap) const
{
    obs::CovSummary summary;
    summary.execs = execs;
    summary.windows = cov_windows_;
    for (const uint64_t hits : block_hits_) {
        summary.blocks_hit += hits != 0;
        summary.total_block_hits += hits;
    }
    for (const uint64_t hits : edge_hits_)
        summary.edges_hit += hits != 0;
    summary.stray_edges = stray_edges_;
    auto frontier = obs::computeFrontier(plan_, block_hits_, 0);
    summary.frontier_size = frontier.size();
    if (cap != 0 && frontier.size() > cap)
        frontier.resize(cap);
    summary.top_frontier = std::move(frontier);
    return summary;
}

std::string
FleetAggregate::coverageJson(uint64_t execs) const
{
    if (!covmap_enabled_)
        return "{\"enabled\":false}";
    const obs::CovSummary snap =
        covSummary(execs, obs::CovMap::kSummaryFrontierCap);
    std::string out;
    out.reserve(256);
    out += "{\"enabled\":true,\"execs\":";
    out += std::to_string(snap.execs);
    out += ",\"windows\":";
    out += std::to_string(snap.windows);
    out += ",\"blocks_total\":";
    out += std::to_string(plan_.num_blocks);
    out += ",\"blocks_hit\":";
    out += std::to_string(snap.blocks_hit);
    out += ",\"edges_total\":";
    out += std::to_string(plan_.numEdges());
    out += ",\"edges_hit\":";
    out += std::to_string(snap.edges_hit);
    out += ",\"total_block_hits\":";
    out += std::to_string(snap.total_block_hits);
    out += ",\"stray_edges\":";
    out += std::to_string(snap.stray_edges);
    out += ",\"frontier_size\":";
    out += std::to_string(snap.frontier_size);
    out += ",\"frontier\":[";
    for (size_t i = 0; i < snap.top_frontier.size(); ++i) {
        const obs::FrontierEntry &entry = snap.top_frontier[i];
        if (i != 0)
            out += ',';
        out += "{\"target\":";
        out += std::to_string(entry.target);
        out += ",\"guard\":";
        out += std::to_string(entry.guard);
        out += ",\"guard_hits\":";
        out += std::to_string(entry.guard_hits);
        out += '}';
    }
    out += "]}";
    return out;
}

double
FleetAggregate::pmmShare() const
{
    return pmm_share_execs_ == 0
               ? 0.0
               : pmm_share_weighted_ /
                     static_cast<double>(pmm_share_execs_);
}

uint64_t
FleetAggregate::posteriorPulls(uint32_t arm) const
{
    const auto it = posterior_.find(arm);
    return it == posterior_.end() ? 0 : it->second.first;
}

uint64_t
FleetAggregate::posteriorWins(uint32_t arm) const
{
    const auto it = posterior_.find(arm);
    return it == posterior_.end() ? 0 : it->second.second;
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
