#include "obs/covmap.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/logging.h"

namespace sp::obs {

namespace {

/** Append `[[k,v],...]` for every non-zero delta (sorted by key). */
void
appendDeltaPairs(std::string &out, const std::vector<uint64_t> &now,
                 const std::vector<uint64_t> &before)
{
    out += '[';
    bool first = true;
    for (size_t i = 0; i < now.size(); ++i) {
        const uint64_t delta = now[i] - before[i];
        if (delta == 0)
            continue;
        if (!first)
            out += ',';
        first = false;
        out += '[';
        out += std::to_string(i);
        out += ',';
        out += std::to_string(delta);
        out += ']';
    }
    out += ']';
}

}  // namespace

CovMapPlan
CovMapPlan::build(
    size_t num_blocks,
    const std::vector<std::pair<uint32_t, uint32_t>> &static_edges)
{
    CovMapPlan plan;
    plan.num_blocks = num_blocks;
    plan.edges = static_edges;
    std::sort(plan.edges.begin(), plan.edges.end());
    plan.edges.erase(std::unique(plan.edges.begin(), plan.edges.end()),
                     plan.edges.end());
    plan.succ.assign(num_blocks, {});
    for (const auto &edge : static_edges) {
        const auto [from, to] = edge;
        if (from >= num_blocks)
            continue;
        Successors &succ = plan.succ[from];
        for (size_t slot = 0; slot < 2; ++slot) {
            if (succ.to[slot] == to)
                break;  // a duplicate of this slot's edge
            if (succ.to[slot] == kNone) {
                succ.to[slot] = to;
                succ.edge[slot] = static_cast<uint32_t>(
                    std::lower_bound(plan.edges.begin(), plan.edges.end(),
                                     edge) -
                    plan.edges.begin());
                break;
            }
        }
    }
    return plan;
}

uint32_t
CovMapPlan::edgeIndex(uint32_t from, uint32_t to) const
{
    if (from >= num_blocks)
        return kNone;
    for (size_t slot = 0; slot < 2; ++slot) {
        if (succ[from].to[slot] == to)
            return succ[from].edge[slot];
    }
    return kNone;
}

CovShard::CovShard(const CovMapPlan *plan) : plan_(plan)
{
    block_hits_ =
        std::make_unique<std::atomic<uint64_t>[]>(plan->num_blocks);
    edge_hits_ =
        std::make_unique<std::atomic<uint64_t>[]>(plan->numEdges());
    for (size_t i = 0; i < plan->num_blocks; ++i)
        block_hits_[i].store(0, std::memory_order_relaxed);
    for (size_t i = 0; i < plan->numEdges(); ++i)
        edge_hits_[i].store(0, std::memory_order_relaxed);
}

void
CovShard::recordTrace(const std::vector<uint32_t> &blocks)
{
    if (blocks.empty())
        return;
    const CovMapPlan::Successors *const succ = plan_->succ.data();
    const size_t num_blocks = plan_->num_blocks;
    std::atomic<uint64_t> *const block_hits = block_hits_.get();
    std::atomic<uint64_t> *const edge_hits = edge_hits_.get();

    // First block peeled: a trace start is always a direct entry.
    uint32_t prev = blocks[0];
    if (prev < num_blocks)
        bump(block_hits[prev]);
    for (size_t i = 1; i < blocks.size(); ++i) {
        const uint32_t block = blocks[i];
        uint32_t edge = CovMapPlan::kNone;
        if (prev < num_blocks) {
            // Inlined edgeIndex over the packed successor record.
            const CovMapPlan::Successors &s = succ[prev];
            edge = s.to[0] == block   ? s.edge[0]
                   : s.to[1] == block ? s.edge[1]
                                      : CovMapPlan::kNone;
        }
        if (edge != CovMapPlan::kNone) {
            // The block's visit is derived from this edge at reads.
            bump(edge_hits[edge]);
        } else {
            // Noise-inserted interrupt transitions and other
            // non-static pairs: tallied in aggregate so the hot path
            // never allocates; the block counts as a direct entry.
            bump(stray_edges_);
            if (block < num_blocks)
                bump(block_hits[block]);
        }
        prev = block;
    }
}

CovMap::CovMap(CovMapPlan plan, size_t workers)
    : plan_(std::move(plan)), merged_(plan_)
{
    SP_ASSERT(workers > 0, "covmap needs at least one shard");
    shards_.reserve(workers);
    for (size_t w = 0; w < workers; ++w)
        shards_.emplace_back(new CovShard(&plan_));
}

CovMap::~CovMap()
{
    if (log_ != nullptr)
        std::fclose(log_);
}

bool
CovMap::openLog(const std::string &path,
                const std::string &extra_header_json)
{
    std::lock_guard<std::mutex> lock(mu_);
    SP_ASSERT(log_ == nullptr, "covmap log already open");
    log_ = std::fopen(path.c_str(), "w");
    if (log_ == nullptr)
        return false;

    std::string header;
    header.reserve(64 + plan_.numEdges() * 12);
    header += "{\"type\":\"covmap_header\",\"version\":1,";
    header += "\"num_blocks\":" + std::to_string(plan_.num_blocks);
    header += ",\"num_edges\":" + std::to_string(plan_.numEdges());
    header += ",\"edges\":[";
    for (size_t e = 0; e < plan_.edges.size(); ++e) {
        if (e != 0)
            header += ',';
        header += '[';
        header += std::to_string(plan_.edges[e].first);
        header += ',';
        header += std::to_string(plan_.edges[e].second);
        header += ']';
    }
    header += ']';
    if (!extra_header_json.empty()) {
        header += ',';
        header += extra_header_json;
    }
    header += "}\n";
    std::fwrite(header.data(), 1, header.size(), log_);
    return true;
}

CovCounts
CovMap::foldShards() const
{
    CovCounts counts(plan_);
    for (const auto &shard : shards_) {
        for (size_t i = 0; i < plan_.num_blocks; ++i) {
            counts.blocks[i] += shard->block_hits_[i].load(
                std::memory_order_relaxed);
        }
        for (size_t i = 0; i < plan_.numEdges(); ++i) {
            counts.edges[i] +=
                shard->edge_hits_[i].load(std::memory_order_relaxed);
        }
        counts.stray +=
            shard->stray_edges_.load(std::memory_order_relaxed);
    }
    // Shards count a visit over a static edge on the edge alone.
    for (size_t e = 0; e < plan_.numEdges(); ++e) {
        const uint32_t to = plan_.edges[e].second;
        if (to < plan_.num_blocks)
            counts.blocks[to] += counts.edges[e];
    }
    return counts;
}

std::vector<FrontierEntry>
computeFrontier(const CovMapPlan &plan,
                const std::vector<uint64_t> &block_hits, size_t cap)
{
    std::vector<FrontierEntry> frontier;
    for (uint32_t b = 0; b < plan.num_blocks; ++b) {
        // Two-way branch guards only: a single-successor block whose
        // successor is unreached is a crash artifact, not a branch a
        // mutator could cross.
        if (block_hits[b] == 0 || plan.succ[b].to[1] == CovMapPlan::kNone)
            continue;
        for (size_t slot = 0; slot < 2; ++slot) {
            const uint32_t target = plan.succ[b].to[slot];
            if (target == CovMapPlan::kNone ||
                target >= plan.num_blocks || block_hits[target] != 0) {
                continue;
            }
            FrontierEntry entry;
            entry.target = target;
            entry.guard = b;
            entry.guard_hits = block_hits[b];
            frontier.push_back(entry);
        }
    }
    std::sort(frontier.begin(), frontier.end(),
              [](const FrontierEntry &a, const FrontierEntry &b) {
                  if (a.guard_hits != b.guard_hits)
                      return a.guard_hits > b.guard_hits;
                  if (a.target != b.target)
                      return a.target < b.target;
                  return a.guard < b.guard;
              });
    if (cap > 0 && frontier.size() > cap)
        frontier.resize(cap);
    return frontier;
}

CovSummary
summarize(const CovMapPlan &plan, const CovCounts &counts, uint64_t execs,
          uint64_t windows, size_t cap)
{
    CovSummary summary;
    summary.execs = execs;
    summary.windows = windows;
    for (const uint64_t hits : counts.blocks) {
        summary.blocks_hit += hits != 0;
        summary.total_block_hits += hits;
    }
    for (const uint64_t hits : counts.edges)
        summary.edges_hit += hits != 0;
    summary.stray_edges = counts.stray;
    summary.top_frontier = computeFrontier(plan, counts.blocks, 0);
    summary.frontier_size = summary.top_frontier.size();
    if (cap > 0 && summary.top_frontier.size() > cap)
        summary.top_frontier.resize(cap);
    return summary;
}

std::string
summaryJson(const CovMapPlan &plan, const CovSummary &summary)
{
    std::string out;
    out.reserve(256);
    out += "{\"enabled\":true,\"execs\":";
    out += std::to_string(summary.execs);
    out += ",\"windows\":";
    out += std::to_string(summary.windows);
    out += ",\"blocks_total\":";
    out += std::to_string(plan.num_blocks);
    out += ",\"blocks_hit\":";
    out += std::to_string(summary.blocks_hit);
    out += ",\"edges_total\":";
    out += std::to_string(plan.numEdges());
    out += ",\"edges_hit\":";
    out += std::to_string(summary.edges_hit);
    out += ",\"total_block_hits\":";
    out += std::to_string(summary.total_block_hits);
    out += ",\"stray_edges\":";
    out += std::to_string(summary.stray_edges);
    out += ",\"frontier_size\":";
    out += std::to_string(summary.frontier_size);
    out += ",\"frontier\":[";
    for (size_t i = 0; i < summary.top_frontier.size(); ++i) {
        const FrontierEntry &entry = summary.top_frontier[i];
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

void
CovMap::mergeLocked(uint64_t execs, Registry &metrics)
{
    // Wall-clock merge cost is telemetry, not campaign state: gate it
    // like every SP_TIMED span so sink-less runs keep the registry
    // free of machine-dependent values (timeline bit-reproducibility).
    const bool timed = timingEnabled();
    const uint64_t start_us = timed ? monotonicMicros() : 0;

    CovCounts now = foldShards();
    CovSummary summary = summarize(plan_, now, execs, summary_.windows + 1,
                                   kSummaryFrontierCap);

    if (log_ != nullptr) {
        std::string line;
        line.reserve(256);
        line += "{\"type\":\"covmap_window\",\"execs\":";
        line += std::to_string(execs);
        line += ",\"new_blocks\":[";
        bool first = true;
        for (size_t b = 0; b < now.blocks.size(); ++b) {
            if (now.blocks[b] == 0 || merged_.blocks[b] != 0)
                continue;
            if (!first)
                line += ',';
            first = false;
            line += std::to_string(b);
        }
        line += "],\"block_deltas\":";
        appendDeltaPairs(line, now.blocks, merged_.blocks);
        line += ",\"edge_deltas\":";
        appendDeltaPairs(line, now.edges, merged_.edges);
        line += ",\"stray_edges\":";
        line += std::to_string(now.stray - merged_.stray);
        line += ",\"blocks_hit\":";
        line += std::to_string(summary.blocks_hit);
        line += ",\"edges_hit\":";
        line += std::to_string(summary.edges_hit);
        line += ",\"frontier_size\":";
        line += std::to_string(summary.frontier_size);
        line += "}\n";
        std::fwrite(line.data(), 1, line.size(), log_);
    }

    metrics.counter("covmap.stray_edges").inc(now.stray - merged_.stray);
    merged_ = std::move(now);
    summary_ = std::move(summary);

    metrics.counter("covmap.windows").inc();
    metrics.gauge("covmap.blocks_hit")
        .set(static_cast<double>(summary_.blocks_hit));
    metrics.gauge("covmap.edges_hit")
        .set(static_cast<double>(summary_.edges_hit));
    metrics.gauge("covmap.frontier_size")
        .set(static_cast<double>(summary_.frontier_size));
    metrics.gauge("covmap.resident_bytes")
        .set(static_cast<double>(residentBytes()));
    if (timed) {
        metrics.histogram("covmap.merge_us")
            .record(static_cast<double>(monotonicMicros() - start_us));
    }
}

void
CovMap::onCheckpoint(uint64_t execs, Registry &metrics)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (finalized_)
        return;
    mergeLocked(execs, metrics);
}

void
CovMap::finalize(uint64_t execs, Registry &metrics)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (finalized_)
        return;
    mergeLocked(execs, metrics);
    finalized_ = true;
    if (log_ == nullptr)
        return;
    std::string line;
    line += "{\"type\":\"covmap_final\",\"execs\":";
    line += std::to_string(execs);
    line += ",\"windows\":";
    line += std::to_string(summary_.windows);
    line += ",\"blocks_hit\":";
    line += std::to_string(summary_.blocks_hit);
    line += ",\"edges_hit\":";
    line += std::to_string(summary_.edges_hit);
    line += ",\"stray_edges\":";
    line += std::to_string(summary_.stray_edges);
    line += ",\"frontier_size\":";
    line += std::to_string(summary_.frontier_size);
    line += "}\n";
    std::fwrite(line.data(), 1, line.size(), log_);
    std::fclose(log_);
    log_ = nullptr;
}

CovCounts
CovMap::merged() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return merged_;
}

CovSummary
CovMap::summary() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return summary_;
}

size_t
CovMap::residentBytes() const
{
    const size_t per_shard =
        (plan_.num_blocks + plan_.numEdges()) * sizeof(uint64_t);
    const size_t plan_bytes =
        plan_.edges.size() * sizeof(plan_.edges[0]) +
        plan_.succ.size() * sizeof(plan_.succ[0]);
    return plan_bytes + per_shard * (shards_.size() + 1);
}

}  // namespace sp::obs
