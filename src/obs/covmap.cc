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
    plan.succ.assign(num_blocks, {kNone, kNone});
    plan.succ_edge.assign(num_blocks, {kNone, kNone});
    for (uint32_t e = 0; e < plan.edges.size(); ++e) {
        const auto [from, to] = plan.edges[e];
        if (from >= num_blocks)
            continue;
        for (size_t slot = 0; slot < 2; ++slot) {
            if (plan.succ[from][slot] == kNone) {
                plan.succ[from][slot] = to;
                plan.succ_edge[from][slot] = e;
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
        if (succ[from][slot] == to)
            return succ_edge[from][slot];
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

namespace {

/**
 * Single-writer increment: each counter has exactly one writing
 * thread (the shard's worker), so a relaxed load+store pair is the
 * same count as fetch_add without the read-modify-write lock — the
 * difference between a plain add and `lock xadd` on every visited
 * block is most of the recording overhead budget.
 */
inline void
bump(std::atomic<uint64_t> &counter)
{
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
}

}  // namespace

void
CovShard::recordTrace(const std::vector<uint32_t> &blocks)
{
    if (blocks.empty())
        return;
    const CovMapPlan &plan = *plan_;
    const size_t num_blocks = plan.num_blocks;
    std::atomic<uint64_t> *const block_hits = block_hits_.get();
    std::atomic<uint64_t> *const edge_hits = edge_hits_.get();

    // First block peeled so the loop body never tests for "no
    // predecessor yet".
    uint32_t prev = blocks[0];
    if (prev < num_blocks)
        bump(block_hits[prev]);
    for (size_t i = 1; i < blocks.size(); ++i) {
        const uint32_t block = blocks[i];
        if (block < num_blocks)
            bump(block_hits[block]);
        if (prev < num_blocks) {
            // Inlined edgeIndex: the two successor slots of `prev`.
            const auto &succ = plan.succ[prev];
            if (succ[0] == block)
                bump(edge_hits[plan.succ_edge[prev][0]]);
            else if (succ[1] == block)
                bump(edge_hits[plan.succ_edge[prev][1]]);
            else
                // Noise-inserted interrupt transitions and other
                // non-static pairs: tallied in aggregate so the hot
                // path never allocates.
                bump(stray_edges_);
        } else {
            bump(stray_edges_);
        }
        prev = block;
    }
}

uint64_t
CovShard::blockHits(uint32_t block) const
{
    return block < plan_->num_blocks
               ? block_hits_[block].load(std::memory_order_relaxed)
               : 0;
}

uint64_t
CovShard::edgeHits(uint32_t edge) const
{
    return edge < plan_->numEdges()
               ? edge_hits_[edge].load(std::memory_order_relaxed)
               : 0;
}

CovMap::CovMap(CovMapPlan plan, size_t workers)
    : plan_(std::move(plan))
{
    SP_ASSERT(workers > 0, "covmap needs at least one shard");
    shards_.reserve(workers);
    for (size_t w = 0; w < workers; ++w)
        shards_.emplace_back(new CovShard(&plan_));
    merged_blocks_.assign(plan_.num_blocks, 0);
    merged_edges_.assign(plan_.numEdges(), 0);
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

void
CovMap::foldShards(std::vector<uint64_t> &blocks,
                   std::vector<uint64_t> &edges, uint64_t &stray) const
{
    blocks.assign(plan_.num_blocks, 0);
    edges.assign(plan_.numEdges(), 0);
    stray = 0;
    for (const auto &shard : shards_) {
        for (size_t i = 0; i < plan_.num_blocks; ++i) {
            blocks[i] += shard->block_hits_[i].load(
                std::memory_order_relaxed);
        }
        for (size_t i = 0; i < plan_.numEdges(); ++i) {
            edges[i] +=
                shard->edge_hits_[i].load(std::memory_order_relaxed);
        }
        stray += shard->stray_edges_.load(std::memory_order_relaxed);
    }
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
        if (block_hits[b] == 0 || plan.succ[b][1] == CovMapPlan::kNone)
            continue;
        for (size_t slot = 0; slot < 2; ++slot) {
            const uint32_t target = plan.succ[b][slot];
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
                  return a.target < b.target;
              });
    if (cap > 0 && frontier.size() > cap)
        frontier.resize(cap);
    return frontier;
}

void
CovMap::mergeLocked(uint64_t execs, bool emit_window, Registry &metrics)
{
    // Wall-clock merge cost is telemetry, not campaign state: gate it
    // like every SP_TIMED span so sink-less runs keep the registry
    // free of machine-dependent values (timeline bit-reproducibility).
    const bool timed = timingEnabled();
    const uint64_t start_us = timed ? monotonicMicros() : 0;

    std::vector<uint64_t> blocks, edges;
    uint64_t stray = 0;
    foldShards(blocks, edges, stray);

    std::vector<uint32_t> new_blocks;
    size_t blocks_hit = 0;
    uint64_t total_hits = 0;
    for (uint32_t b = 0; b < blocks.size(); ++b) {
        total_hits += blocks[b];
        if (blocks[b] != 0) {
            ++blocks_hit;
            if (merged_blocks_[b] == 0)
                new_blocks.push_back(b);
        }
    }
    size_t edges_hit = 0;
    for (const uint64_t hits : edges)
        edges_hit += hits != 0;

    const auto frontier = computeFrontier(plan_, blocks, /*cap=*/0);

    if (emit_window && log_ != nullptr) {
        std::string line;
        line.reserve(256 + new_blocks.size() * 8);
        line += "{\"type\":\"covmap_window\",\"execs\":";
        line += std::to_string(execs);
        line += ",\"new_blocks\":[";
        for (size_t i = 0; i < new_blocks.size(); ++i) {
            if (i != 0)
                line += ',';
            line += std::to_string(new_blocks[i]);
        }
        line += "],\"block_deltas\":";
        appendDeltaPairs(line, blocks, merged_blocks_);
        line += ",\"edge_deltas\":";
        appendDeltaPairs(line, edges, merged_edges_);
        line += ",\"stray_edges\":";
        line += std::to_string(stray - merged_stray_);
        line += ",\"blocks_hit\":";
        line += std::to_string(blocks_hit);
        line += ",\"edges_hit\":";
        line += std::to_string(edges_hit);
        line += ",\"frontier_size\":";
        line += std::to_string(frontier.size());
        line += "}\n";
        std::fwrite(line.data(), 1, line.size(), log_);
    }

    metrics.counter("covmap.stray_edges").inc(stray - merged_stray_);

    merged_blocks_ = std::move(blocks);
    merged_edges_ = std::move(edges);
    merged_stray_ = stray;

    summary_.execs = execs;
    if (emit_window)
        ++summary_.windows;
    summary_.blocks_hit = blocks_hit;
    summary_.edges_hit = edges_hit;
    summary_.total_block_hits = total_hits;
    summary_.stray_edges = stray;
    summary_.frontier_size = frontier.size();
    summary_.top_frontier.assign(
        frontier.begin(),
        frontier.begin() +
            std::min(frontier.size(), kSummaryFrontierCap));

    if (emit_window)
        metrics.counter("covmap.windows").inc();
    metrics.gauge("covmap.blocks_hit").set(static_cast<double>(blocks_hit));
    metrics.gauge("covmap.edges_hit").set(static_cast<double>(edges_hit));
    metrics.gauge("covmap.frontier_size")
        .set(static_cast<double>(frontier.size()));
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
    mergeLocked(execs, /*emit_window=*/true, metrics);
}

void
CovMap::finalize(uint64_t execs, Registry &metrics)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (finalized_)
        return;
    mergeLocked(execs, /*emit_window=*/true, metrics);
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

std::vector<uint64_t>
CovMap::mergedBlockHits() const
{
    std::vector<uint64_t> blocks, edges;
    uint64_t stray = 0;
    foldShards(blocks, edges, stray);
    return blocks;
}

std::vector<uint64_t>
CovMap::mergedEdgeHits() const
{
    std::vector<uint64_t> blocks, edges;
    uint64_t stray = 0;
    foldShards(blocks, edges, stray);
    return edges;
}

CovSummary
CovMap::summary() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return summary_;
}

std::string
CovMap::summaryJson() const
{
    const CovSummary snap = summary();
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
        const FrontierEntry &entry = snap.top_frontier[i];
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

std::vector<FrontierEntry>
CovMap::frontierTargets(size_t cap) const
{
    return computeFrontier(plan_, mergedBlockHits(), cap);
}

size_t
CovMap::residentBytes() const
{
    const size_t per_shard =
        (plan_.num_blocks + plan_.numEdges()) * sizeof(uint64_t);
    const size_t plan_bytes =
        plan_.edges.size() * sizeof(plan_.edges[0]) +
        plan_.succ.size() *
            (sizeof(plan_.succ[0]) + sizeof(plan_.succ_edge[0]));
    return plan_bytes + per_shard * (shards_.size() + 1);
}

}  // namespace sp::obs
