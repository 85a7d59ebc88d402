#include "core/oracle.h"

#include <algorithm>
#include <unordered_map>

#include "prog/flatten.h"
#include "util/hash.h"

namespace sp::core {

OracleLocalizer::OracleLocalizer(const kern::Kernel &kernel)
    : kernel_(kernel), probe_(kernel)
{
}

std::vector<mut::ArgLocation>
OracleLocalizer::localize(const prog::Prog &prog, Rng &rng,
                          size_t max_sites)
{
    auto result = probe_.run(prog);
    return localizeWithResult(prog, result, rng, max_sites);
}

std::vector<mut::ArgLocation>
OracleLocalizer::localizeWithResult(const prog::Prog &prog,
                                    const exec::ExecResult &result,
                                    Rng &rng, size_t max_sites)
{
    // For every executed branch whose other side is uncovered, find the
    // argument of the executing call that the guard reads. Sites are
    // scored: an argument guarding many frontier branches, or guarding
    // one whose comparison constant lies in the argument's declared
    // domain (so instantiation can actually hit it), is more promising.
    std::vector<mut::ArgLocation> sites;
    std::vector<double> scores;
    std::unordered_map<uint64_t, size_t> site_index;
    const std::vector<uint32_t> covered = result.coverage.sortedBlocks();
    auto isNew = [&covered](uint32_t block) {
        return !std::binary_search(covered.begin(), covered.end(), block);
    };
    for (const auto &trace : result.calls) {
        if (trace.call_index >= prog.calls.size())
            continue;
        const prog::Call &call = prog.calls[trace.call_index];
        // Slot -> mutation point of this call.
        auto points = prog::mutationPoints(call);
        const auto &descs = call.decl->slots();

        for (uint32_t block : trace.blocks) {
            const auto &bb = kernel_.block(block);
            if (bb.term != kern::Term::Branch ||
                bb.handler != trace.syscall_id) {
                continue;
            }
            switch (bb.cond.kind) {
              case kern::CondKind::Always:
              case kern::CondKind::StateFlagSet:
                continue;
              default:
                break;
            }
            // Is one side of this branch on the frontier?
            const bool taken_new = isNew(bb.taken);
            const bool fall_new = isNew(bb.fallthrough);
            if (!taken_new && !fall_new)
                continue;
            // Resolve the tested slot to its owning mutable argument.
            for (const auto &desc : descs) {
                if (desc.index != bb.cond.slot)
                    continue;
                for (const auto &point : points) {
                    if (point.path != desc.path)
                        continue;
                    uint64_t key = hashU64(trace.call_index + 1);
                    for (uint16_t step : point.path)
                        key = hashCombine(key, step + 1);
                    double weight = 1.0;
                    const auto &domain = point.type->domain;
                    const bool feasible =
                        domain.empty() ||
                        std::find(domain.begin(), domain.end(),
                                  bb.cond.a) != domain.end() ||
                        bb.cond.kind == kern::CondKind::ArgLt ||
                        bb.cond.kind == kern::CondKind::ArgGe ||
                        bb.cond.kind == kern::CondKind::ArgInRange;
                    if (feasible)
                        weight += 2.0;
                    auto it = site_index.find(key);
                    if (it != site_index.end()) {
                        scores[it->second] += weight;
                        continue;
                    }
                    mut::ArgLocation site;
                    site.call_index = trace.call_index;
                    site.point = point;
                    site_index.emplace(key, sites.size());
                    sites.push_back(std::move(site));
                    scores.push_back(weight);
                }
            }
        }
    }
    if (sites.empty())
        return fallback_.localize(prog, rng, 1);
    // Order by score (jittered so equal scores rotate across picks).
    std::vector<size_t> order(sites.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return scores[a] > scores[b];
    });
    std::vector<mut::ArgLocation> ranked;
    ranked.reserve(std::min(order.size(), max_sites));
    for (size_t i : order) {
        if (ranked.size() >= max_sites)
            break;
        // Small chance to skip, so repeated picks explore lower ranks.
        if (rng.chance(0.1) && order.size() > max_sites)
            continue;
        ranked.push_back(sites[i]);
    }
    return ranked;
}

}  // namespace sp::core
