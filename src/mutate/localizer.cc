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
    // Same draws as sampling over allArgLocations(prog), but only the
    // chosen sites are built: per-call point counts index the
    // program-order location list.
    std::vector<size_t> per_call(prog.calls.size());
    size_t total = 0;
    for (size_t i = 0; i < prog.calls.size(); ++i) {
        per_call[i] = prog::countMutationPoints(prog.calls[i]);
        total += per_call[i];
    }
    if (total == 0)
        return {};

    auto site = [&prog](size_t call_index, size_t k) {
        ArgLocation loc;
        loc.call_index = call_index;
        loc.point = prog::mutationPointAt(prog.calls[call_index], k);
        return loc;
    };
    std::vector<ArgLocation> chosen;
    if (rng.chance(arity_bias_) && prog.calls.size() > 1) {
        // Syzkaller-style: focus on the call with the largest arity.
        const size_t best_call = static_cast<size_t>(
            std::max_element(per_call.begin(), per_call.end()) -
            per_call.begin());
        const size_t take = std::min(max_sites, per_call[best_call]);
        for (size_t k : rng.sampleIndices(per_call[best_call], take))
            chosen.push_back(site(best_call, k));
    } else {
        const size_t take = std::min(max_sites, total);
        for (size_t i : rng.sampleIndices(total, take)) {
            size_t call_index = 0;
            while (i >= per_call[call_index])
                i -= per_call[call_index++];
            chosen.push_back(site(call_index, i));
        }
    }
    return chosen;
}

}  // namespace sp::mut
