#include "analysis/frontier.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

namespace sp::analysis {

namespace {

/** Fold one `[[index, delta], ...]` array into `cumulative`; returns
 *  the delta sum, or sets `error` on malformed entries. */
uint64_t
applyDeltas(const json::Value &pairs, std::vector<uint64_t> &cumulative,
            std::string &error, const char *what)
{
    uint64_t total = 0;
    for (const json::Value &pair : pairs.array()) {
        const json::Value *index = pair.at(0);
        const json::Value *delta = pair.at(1);
        if (index == nullptr || delta == nullptr) {
            error = std::string("malformed ") + what + " delta pair";
            return total;
        }
        const uint64_t i = index->asUint();
        if (i >= cumulative.size()) {
            error = std::string(what) + " delta index out of range";
            return total;
        }
        cumulative[i] += delta->asUint();
        total += delta->asUint();
    }
    return total;
}

}  // namespace

CovProfile
CovProfile::load(const std::string &path)
{
    CovProfile profile;
    std::ifstream in(path);
    if (!in) {
        profile.error = "cannot open " + path;
        return profile;
    }

    std::string line;
    size_t line_no = 0;
    bool have_header = false;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        json::ParseResult parsed = json::parse(line);
        if (!parsed.ok()) {
            profile.error = "line " + std::to_string(line_no) + ": " +
                            parsed.error;
            return profile;
        }
        const json::Value &record = parsed.value;
        const json::Value *type = record.find("type");
        if (type == nullptr) {
            profile.error =
                "line " + std::to_string(line_no) + ": missing type";
            return profile;
        }

        if (type->str() == "covmap_header") {
            if (have_header) {
                profile.error = "duplicate covmap_header";
                return profile;
            }
            have_header = true;
            profile.header = record;
            const json::Value *num_blocks = record.find("num_blocks");
            const json::Value *edges = record.find("edges");
            if (num_blocks == nullptr || edges == nullptr) {
                profile.error = "covmap_header missing fields";
                return profile;
            }
            std::vector<std::pair<uint32_t, uint32_t>> header_edges;
            for (const json::Value &edge : edges->array()) {
                const json::Value *from = edge.at(0);
                const json::Value *to = edge.at(1);
                if (from == nullptr || to == nullptr) {
                    profile.error = "malformed header edge";
                    return profile;
                }
                header_edges.emplace_back(
                    static_cast<uint32_t>(from->asUint()),
                    static_cast<uint32_t>(to->asUint()));
            }
            profile.plan = obs::CovMapPlan::build(
                static_cast<size_t>(num_blocks->asUint()), header_edges);
            // Edge deltas index the writer's dense order, which is the
            // plan's: a header in any other order cannot be replayed.
            if (profile.plan.edges != header_edges) {
                profile.error = "covmap_header edges not sorted and unique";
                return profile;
            }
            profile.counts = obs::CovCounts(profile.plan);
            continue;
        }

        if (!have_header) {
            profile.error = "record before covmap_header";
            return profile;
        }

        if (type->str() == "covmap_window") {
            WindowRecord window;
            if (const json::Value *v = record.find("execs"))
                window.execs = v->asUint();
            if (const json::Value *v = record.find("new_blocks")) {
                for (const json::Value &block : v->array()) {
                    window.new_blocks.push_back(
                        static_cast<uint32_t>(block.asUint()));
                }
            }
            if (const json::Value *v = record.find("block_deltas")) {
                window.block_hit_delta = applyDeltas(
                    *v, profile.counts.blocks, profile.error, "block");
            }
            if (const json::Value *v = record.find("edge_deltas"))
                applyDeltas(*v, profile.counts.edges, profile.error,
                            "edge");
            if (!profile.ok())
                return profile;
            if (const json::Value *v = record.find("stray_edges")) {
                window.stray_edges = v->asUint();
                profile.counts.stray += window.stray_edges;
            }
            if (const json::Value *v = record.find("blocks_hit"))
                window.blocks_hit = v->asUint();
            if (const json::Value *v = record.find("edges_hit"))
                window.edges_hit = v->asUint();
            if (const json::Value *v = record.find("frontier_size"))
                window.frontier_size = v->asUint();
            profile.execs = window.execs;
            profile.windows.push_back(std::move(window));
            continue;
        }

        if (type->str() == "covmap_final") {
            if (const json::Value *v = record.find("execs"))
                profile.execs = v->asUint();
            continue;
        }

        profile.error = "line " + std::to_string(line_no) +
                        ": unknown record type " + type->str();
        return profile;
    }

    if (!have_header)
        profile.error = "no covmap_header in " + path;
    return profile;
}

const char *
heatName(Heat heat)
{
    switch (heat) {
    case Heat::Unreached: return "unreached";
    case Heat::Cold: return "cold";
    case Heat::Warm: return "warm";
    case Heat::Hot: return "hot";
    }
    return "?";
}

HeatThresholds
heatThresholds(const std::vector<uint64_t> &block_hits)
{
    std::vector<uint64_t> reached;
    reached.reserve(block_hits.size());
    for (const uint64_t hits : block_hits) {
        if (hits != 0)
            reached.push_back(hits);
    }
    HeatThresholds t;
    if (reached.empty())
        return t;
    std::sort(reached.begin(), reached.end());
    // Nearest-rank percentiles: the smallest hit count with at least
    // 10% (90%) of reached blocks at or below it. Band membership is
    // inclusive, so every p10-tied block is cold and every p90-tied
    // block is hot — deterministic under re-sorting.
    const size_t n = reached.size();
    const size_t p10 = (n * 10 + 99) / 100;  // ceil(n * 0.10)
    const size_t p90 = (n * 90 + 99) / 100;  // ceil(n * 0.90)
    t.cold_max = reached[p10 == 0 ? 0 : p10 - 1];
    t.hot_min = reached[p90 == 0 ? 0 : p90 - 1];
    return t;
}

Heat
heatOf(uint64_t hits, const HeatThresholds &t)
{
    if (hits == 0)
        return Heat::Unreached;
    if (hits >= t.hot_min)
        return Heat::Hot;
    if (hits <= t.cold_max)
        return Heat::Cold;
    return Heat::Warm;
}

std::vector<FrontierTarget>
frontierTargets(const CovProfile &profile, const kern::Kernel *kernel,
                size_t cap)
{
    const auto entries =
        obs::computeFrontier(profile.plan, profile.counts.blocks, cap);

    std::vector<std::string> subsystems;
    if (kernel != nullptr)
        subsystems = blockSubsystems(*kernel);

    std::vector<FrontierTarget> targets;
    targets.reserve(entries.size());
    for (const obs::FrontierEntry &entry : entries) {
        FrontierTarget target;
        target.target = entry.target;
        target.guard = entry.guard;
        target.guard_hits = entry.guard_hits;
        if (kernel != nullptr) {
            if (entry.target < subsystems.size())
                target.subsystem = subsystems[entry.target];
            target.bug_site = kernel->bugAt(entry.target) != nullptr;
        }
        targets.push_back(std::move(target));
    }
    return targets;
}

std::string
subsystemOfSyscall(const std::string &syscall_name)
{
    const size_t dollar = syscall_name.find('$');
    if (dollar == std::string::npos)
        return syscall_name;
    std::string variant = syscall_name.substr(dollar + 1);
    for (const char *prefix : {"open_", "use_", "close_"}) {
        const size_t len = std::string(prefix).size();
        if (variant.compare(0, len, prefix) == 0)
            return variant.substr(len);
    }
    return variant;
}

std::vector<std::string>
blockSubsystems(const kern::Kernel &kernel)
{
    // Handler id -> subsystem, then blocks via their owning handler.
    std::vector<std::string> by_handler;
    by_handler.reserve(kernel.table().decls.size());
    for (const auto &decl : kernel.table().decls)
        by_handler.push_back(subsystemOfSyscall(decl.name));

    std::vector<std::string> by_block(kernel.blocks().size());
    for (size_t b = 0; b < kernel.blocks().size(); ++b) {
        const uint32_t handler = kernel.blocks()[b].handler;
        by_block[b] = handler < by_handler.size()
                          ? by_handler[handler]
                          : "interrupt";
    }
    return by_block;
}

std::vector<SubsystemHeat>
subsystemHeat(const CovProfile &profile, const kern::Kernel &kernel,
              const HeatThresholds &thresholds,
              const std::vector<FrontierTarget> &targets)
{
    const auto by_block = blockSubsystems(kernel);
    std::map<std::string, SubsystemHeat> groups;
    const size_t limit =
        std::min(profile.counts.blocks.size(), by_block.size());
    for (size_t b = 0; b < limit; ++b) {
        SubsystemHeat &group = groups[by_block[b]];
        group.name = by_block[b];
        ++group.blocks;
        const uint64_t hits = profile.counts.blocks[b];
        group.total_hits += hits;
        switch (heatOf(hits, thresholds)) {
        case Heat::Unreached: break;
        case Heat::Cold:
            ++group.reached;
            ++group.cold;
            break;
        case Heat::Warm: ++group.reached; break;
        case Heat::Hot:
            ++group.reached;
            ++group.hot;
            break;
        }
    }
    for (const FrontierTarget &target : targets) {
        if (target.target >= by_block.size())
            continue;
        SubsystemHeat &group = groups[by_block[target.target]];
        group.name = by_block[target.target];
        ++group.frontier;
    }

    std::vector<SubsystemHeat> out;
    out.reserve(groups.size());
    for (auto &[name, group] : groups)
        out.push_back(std::move(group));
    std::sort(out.begin(), out.end(),
              [](const SubsystemHeat &a, const SubsystemHeat &b) {
                  if (a.total_hits != b.total_hits)
                      return a.total_hits > b.total_hits;
                  return a.name < b.name;
              });
    return out;
}

}  // namespace sp::analysis
