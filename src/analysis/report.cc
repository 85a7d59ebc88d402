#include "analysis/report.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/telemetry.h"

namespace sp::analysis {

using obs::jsonQuote;

Analysis
analyze(CovProfile profile, const kern::Kernel *kernel,
        size_t target_cap)
{
    Analysis analysis;
    analysis.profile = std::move(profile);
    const CovProfile &loaded = analysis.profile;
    if (!loaded.ok())
        return analysis;
    analysis.summary =
        obs::summarize(loaded.plan, loaded.counts, loaded.execs,
                       loaded.windows.size(), target_cap);
    analysis.thresholds = heatThresholds(loaded.counts.blocks);
    for (const uint64_t hits : loaded.counts.blocks) {
        ++analysis.band_counts[static_cast<size_t>(
            heatOf(hits, analysis.thresholds))];
    }
    analysis.targets =
        frontierTargets(analysis.profile, kernel, target_cap);
    if (kernel != nullptr) {
        analysis.subsystems =
            subsystemHeat(analysis.profile, *kernel,
                          analysis.thresholds, analysis.targets);
    }
    return analysis;
}

std::string
reportJson(const Analysis &analysis, const std::string &source_path)
{
    const CovProfile &profile = analysis.profile;
    const obs::CovSummary &summary = analysis.summary;
    std::string out;
    out.reserve(1024);
    out += "{\"type\":\"covmap_report\",\"version\":1,\"source\":";
    out += jsonQuote(source_path);
    out += ",\"execs\":" + std::to_string(summary.execs);
    out += ",\"windows\":" + std::to_string(summary.windows);
    out += ",\"blocks_total\":" + std::to_string(profile.plan.num_blocks);
    out += ",\"blocks_hit\":" + std::to_string(summary.blocks_hit);
    out += ",\"edges_total\":" + std::to_string(profile.plan.numEdges());
    out += ",\"edges_hit\":" + std::to_string(summary.edges_hit);
    out += ",\"stray_edges\":" + std::to_string(summary.stray_edges);

    out += ",\"heat\":{\"cold_max\":";
    out += std::to_string(analysis.thresholds.cold_max);
    out += ",\"hot_min\":";
    out += std::to_string(analysis.thresholds.hot_min);
    const auto band = [&analysis](Heat heat) {
        return analysis.band_counts[static_cast<size_t>(heat)];
    };
    out += ",\"unreached\":" + std::to_string(band(Heat::Unreached));
    out += ",\"cold\":" + std::to_string(band(Heat::Cold));
    out += ",\"warm\":" + std::to_string(band(Heat::Warm));
    out += ",\"hot\":" + std::to_string(band(Heat::Hot));
    out += '}';

    out += ",\"subsystems\":[";
    for (size_t i = 0; i < analysis.subsystems.size(); ++i) {
        const SubsystemHeat &group = analysis.subsystems[i];
        if (i != 0)
            out += ',';
        out += "{\"name\":" + jsonQuote(group.name);
        out += ",\"blocks\":" + std::to_string(group.blocks);
        out += ",\"reached\":" + std::to_string(group.reached);
        out += ",\"hot\":" + std::to_string(group.hot);
        out += ",\"cold\":" + std::to_string(group.cold);
        out += ",\"frontier\":" + std::to_string(group.frontier);
        out += ",\"total_hits\":" + std::to_string(group.total_hits);
        out += '}';
    }
    out += ']';

    out += ",\"targets\":[";
    for (size_t i = 0; i < analysis.targets.size(); ++i) {
        const FrontierTarget &target = analysis.targets[i];
        if (i != 0)
            out += ',';
        out += "{\"block\":" + std::to_string(target.target);
        out += ",\"guard\":" + std::to_string(target.guard);
        out += ",\"guard_hits\":" + std::to_string(target.guard_hits);
        out += ",\"subsystem\":" + jsonQuote(target.subsystem);
        out += ",\"bug_site\":";
        out += target.bug_site ? "true" : "false";
        out += '}';
    }
    out += ']';

    out += ",\"timeline\":[";
    for (size_t i = 0; i < profile.windows.size(); ++i) {
        const WindowRecord &window = profile.windows[i];
        if (i != 0)
            out += ',';
        out += "{\"execs\":" + std::to_string(window.execs);
        out += ",\"new_blocks\":" +
               std::to_string(window.new_blocks.size());
        out += ",\"blocks_hit\":" + std::to_string(window.blocks_hit);
        out += ",\"edges_hit\":" + std::to_string(window.edges_hit);
        out += ",\"frontier_size\":" +
               std::to_string(window.frontier_size);
        out += '}';
    }
    out += "]}";
    return out;
}

std::string
reportText(const Analysis &analysis, const std::string &source_path)
{
    const CovProfile &profile = analysis.profile;
    const obs::CovSummary &summary = analysis.summary;
    std::ostringstream out;
    out << "coverage cartography: " << source_path << "\n";
    out << "  execs " << summary.execs << ", windows " << summary.windows
        << "\n";
    out << "  blocks " << summary.blocks_hit << "/"
        << profile.plan.num_blocks << " reached, edges "
        << summary.edges_hit << "/" << profile.plan.numEdges()
        << ", stray " << summary.stray_edges << "\n";
    const auto band = [&analysis](Heat heat) {
        return analysis.band_counts[static_cast<size_t>(heat)];
    };
    out << "  heat: hot " << band(Heat::Hot) << " (>= "
        << analysis.thresholds.hot_min << " hits), warm "
        << band(Heat::Warm) << ", cold " << band(Heat::Cold)
        << " (<= " << analysis.thresholds.cold_max
        << " hits), unreached " << band(Heat::Unreached) << "\n";

    if (!analysis.subsystems.empty()) {
        out << "  subsystems (by total hits):\n";
        for (const SubsystemHeat &group : analysis.subsystems) {
            out << "    " << group.name << ": " << group.reached << "/"
                << group.blocks << " reached, hot " << group.hot
                << ", cold " << group.cold << ", frontier "
                << group.frontier << ", hits " << group.total_hits
                << "\n";
        }
    }

    out << "  cold-frontier targets (" << analysis.targets.size()
        << "):\n";
    for (const FrontierTarget &target : analysis.targets) {
        out << "    block " << target.target << " guarded by "
            << target.guard << " (" << target.guard_hits << " hits)";
        if (!target.subsystem.empty())
            out << " [" << target.subsystem << "]";
        if (target.bug_site)
            out << " [bug site]";
        out << "\n";
    }
    return out.str();
}

std::vector<uint32_t>
loadTargets(const std::string &path, std::string *error)
{
    std::vector<uint32_t> targets;
    std::ifstream in(path);
    if (!in) {
        if (error != nullptr)
            *error = "cannot open " + path;
        return targets;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    json::ParseResult parsed = json::parse(buffer.str());
    if (!parsed.ok()) {
        if (error != nullptr)
            *error = path + ": " + parsed.error;
        return targets;
    }
    const json::Value *list = parsed.value.find("targets");
    if (list == nullptr || !list->isArray()) {
        if (error != nullptr)
            *error = path + ": no targets array";
        return targets;
    }
    for (const json::Value &entry : list->array()) {
        const json::Value *block = entry.find("block");
        if (block == nullptr) {
            if (error != nullptr)
                *error = path + ": target entry without block";
            return {};
        }
        targets.push_back(static_cast<uint32_t>(block->asUint()));
    }
    if (error != nullptr)
        error->clear();
    return targets;
}

}  // namespace sp::analysis
