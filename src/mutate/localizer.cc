#include "mutate/localizer.h"

#include <algorithm>

namespace sp::mut {

std::vector<ArgLocation>
allArgLocations(const prog::Prog &prog)
{
    std::vector<ArgLocation> locations;
    for (size_t i = 0; i < prog.calls.size(); ++i) {
        for (auto &point : prog::mutationPoints(prog.calls[i])) {
            ArgLocation loc;
            loc.call_index = i;
            loc.point = std::move(point);
            locations.push_back(std::move(loc));
        }
    }
    return locations;
}

bool
hasArgLocation(const prog::Prog &prog)
{
    for (const auto &call : prog.calls)
        if (prog::hasMutationPoint(call))
            return true;
    return false;
}

std::vector<ArgLocation>
RandomLocalizer::localize(const prog::Prog &prog, Rng &rng,
                          size_t max_sites)
{
    auto all = allArgLocations(prog);
    if (all.empty())
        return {};

    std::vector<ArgLocation> chosen;
    if (rng.chance(arity_bias_) && prog.calls.size() > 1) {
        // Syzkaller-style: focus on the call with the largest arity.
        size_t best_call = 0, best_arity = 0;
        std::vector<size_t> per_call(prog.calls.size(), 0);
        for (const auto &loc : all)
            ++per_call[loc.call_index];
        for (size_t i = 0; i < per_call.size(); ++i) {
            if (per_call[i] > best_arity) {
                best_arity = per_call[i];
                best_call = i;
            }
        }
        std::vector<size_t> pool;
        for (size_t i = 0; i < all.size(); ++i)
            if (all[i].call_index == best_call)
                pool.push_back(i);
        const size_t take = std::min(max_sites, pool.size());
        for (size_t pi : rng.sampleIndices(pool.size(), take))
            chosen.push_back(all[pool[pi]]);
    } else {
        const size_t take = std::min(max_sites, all.size());
        for (size_t i : rng.sampleIndices(all.size(), take))
            chosen.push_back(all[i]);
    }
    return chosen;
}

}  // namespace sp::mut
