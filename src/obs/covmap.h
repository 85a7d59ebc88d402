/**
 * @file
 * Coverage cartography: campaign-wide per-block / per-edge hit-count
 * accumulation over the executor's boolean CoverageSet.
 *
 * The boolean coverage the fuzz loop keeps (exec/coverage.h) answers
 * "was this block ever reached"; steering a campaign needs the next
 * derivative — *how often* each block and static CFG edge is exercised,
 * how that changes over time, and where execution keeps hammering a
 * branch without ever crossing it. This module supplies that surface
 * with the same hot-path discipline as the rest of src/obs:
 *
 *  - a CovMapPlan is the immutable geometry (block count, dense static
 *    edge index, per-block successor table) built once from plain data
 *    (`kernel.staticEdges()`), so sp_obs stays dependency-free;
 *  - each campaign worker owns one CovShard of relaxed-atomic counters
 *    (single writer, merge-time readers): recording a trace is two
 *    array loads and a relaxed load+store increment per visited block
 *    (no RMW lock — the writer is unique), no locks, no allocation;
 *  - the checkpoint owner (already serialized by the campaign's
 *    in-order checkpoint emission) calls onCheckpoint(), which folds
 *    every shard into the cumulative map, derives the window delta
 *    (what became newly-reached / hotter since the last checkpoint),
 *    appends a delta-encoded JSONL record to the snapshot log, updates
 *    the live frontier summary served by /coverage, and refreshes the
 *    covmap.* metrics in the registry it is handed (the campaign's).
 *
 * Frontier definition (plan-level, no kernel required): a *frontier
 * guard* is a reached block with two static successors of which at
 * least one was never reached; each unreached successor is a *frontier
 * target*, ranked by guard hit count (descending — the branches a
 * campaign keeps reaching but never crosses are the best directed
 * targets) with block id as the deterministic tie-break. Shard merging
 * is a commutative sum, so the final map and the ranked target set are
 * independent of worker count and merge interleaving for a fixed
 * multiset of recorded traces.
 */
#ifndef SP_OBS_COVMAP_H
#define SP_OBS_COVMAP_H

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sp::obs {

class Registry;

/** Immutable coverage geometry shared by every shard of one campaign. */
struct CovMapPlan
{
    /** "No block / no edge" sentinel. */
    static constexpr uint32_t kNone = ~0u;

    size_t num_blocks = 0;
    /** Dense edge id -> (from, to); unique static edges, sorted. */
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    /** Per-block static successors (kNone-padded, at most two). */
    std::vector<std::array<uint32_t, 2>> succ;
    /** Dense edge id of the corresponding successor slot. */
    std::vector<std::array<uint32_t, 2>> succ_edge;

    size_t numEdges() const { return edges.size(); }

    /**
     * Build the plan from plain CFG data. Duplicate edges are folded;
     * a block's third and further distinct successors (impossible for
     * two-way branch CFGs, tolerated for robustness) stay out of the
     * dense index and count as stray transitions at record time.
     */
    static CovMapPlan build(
        size_t num_blocks,
        const std::vector<std::pair<uint32_t, uint32_t>> &static_edges);

    /** Dense id of static edge (from, to), or kNone. */
    uint32_t edgeIndex(uint32_t from, uint32_t to) const;
};

/**
 * One worker's private hit accumulator. recordTrace is wait-free:
 * counters only this worker writes are bumped with a relaxed
 * load+store pair (exact, because the writer is unique — no RMW
 * needed); CovMap's merge reads the same counters relaxed from the
 * checkpoint owner, so the pair is race-free by construction and
 * TSan-clean.
 */
class CovShard
{
  public:
    /** Fold one call's block trace in: block hits plus consecutive-pair
     *  static-edge hits; non-static transitions tally as stray. */
    void recordTrace(const std::vector<uint32_t> &blocks);

    /** @name Relaxed reads (merge / tests) */
    /** @{ */
    uint64_t blockHits(uint32_t block) const;
    uint64_t edgeHits(uint32_t edge) const;
    uint64_t strayEdges() const
    {
        return stray_edges_.load(std::memory_order_relaxed);
    }
    /** @} */

  private:
    friend class CovMap;

    explicit CovShard(const CovMapPlan *plan);

    const CovMapPlan *plan_;
    std::unique_ptr<std::atomic<uint64_t>[]> block_hits_;
    std::unique_ptr<std::atomic<uint64_t>[]> edge_hits_;
    std::atomic<uint64_t> stray_edges_{0};
};

/** One ranked cold-frontier entry of the live summary. */
struct FrontierEntry
{
    uint32_t target = CovMapPlan::kNone;  ///< unreached successor block
    uint32_t guard = CovMapPlan::kNone;   ///< reached branch guarding it
    uint64_t guard_hits = 0;
};

/**
 * Ranked cold-frontier targets over a merged block-hit map: every
 * unreached static successor of a reached two-way branch, ordered by
 * guard hits descending then target block id ascending (deterministic).
 * `cap` > 0 truncates. Shared by the live CovMap summary and the
 * offline analyzer so both rank identically.
 */
std::vector<FrontierEntry> computeFrontier(
    const CovMapPlan &plan, const std::vector<uint64_t> &block_hits,
    size_t cap);

/** Merged state at one merge point (live summary / final report). */
struct CovSummary
{
    uint64_t execs = 0;        ///< virtual time of the merge
    uint64_t windows = 0;      ///< snapshot windows emitted so far
    size_t blocks_hit = 0;
    size_t edges_hit = 0;
    uint64_t total_block_hits = 0;
    uint64_t stray_edges = 0;
    size_t frontier_size = 0;  ///< unreached frontier targets
    /** Top frontier targets by guard hits (capped). */
    std::vector<FrontierEntry> top_frontier;
};

/** The campaign-wide accumulator: shards + merged map + snapshot log. */
class CovMap
{
  public:
    /** Frontier entries retained in the live summary. */
    static constexpr size_t kSummaryFrontierCap = 16;

    CovMap(CovMapPlan plan, size_t workers);
    ~CovMap();

    CovMap(const CovMap &) = delete;
    CovMap &operator=(const CovMap &) = delete;

    const CovMapPlan &plan() const { return plan_; }
    size_t shardCount() const { return shards_.size(); }

    /** Worker `w`'s shard. Each worker must only touch its own. */
    CovShard &shard(size_t w) { return *shards_[w]; }

    /**
     * Open the delta-encoded JSONL snapshot log and write its header
     * line. `extra_header_json` is spliced into the header object
     * (e.g. `"kernel":{"seed":7,"version":"6.8"}`); pass "" for none.
     * Returns false (and stays closed) when the file cannot be opened.
     */
    bool openLog(const std::string &path,
                 const std::string &extra_header_json = "");

    /**
     * Merge point: fold every shard into the cumulative map, emit one
     * delta window to the log (when open), refresh the live summary
     * and the covmap.* metrics in `metrics`. Callers must serialize
     * merge points — the campaign's in-order checkpoint emission
     * already does.
     */
    void onCheckpoint(uint64_t execs, Registry &metrics);

    /**
     * Final merge + `covmap_final` log line + log close. Idempotent;
     * safe without an open log (still merges and refreshes summary).
     * CampaignEngine calls it at the end of every run.
     */
    void finalize(uint64_t execs, Registry &metrics);

    /** @name Merged views (fold shards now; any thread) */
    /** @{ */
    std::vector<uint64_t> mergedBlockHits() const;
    std::vector<uint64_t> mergedEdgeHits() const;
    /** @} */

    /** Latest merged summary (copy under lock). */
    CovSummary summary() const;

    /** The live summary as the /coverage JSON payload. */
    std::string summaryJson() const;

    /**
     * Ranked cold-frontier targets over the *current* shard contents
     * (merges on the fly; unbounded unless `cap` > 0). Deterministic:
     * guard hits descending, target block id ascending.
     */
    std::vector<FrontierEntry> frontierTargets(size_t cap = 0) const;

    /** Bytes resident in shards + merged map (covmap.resident_bytes). */
    size_t residentBytes() const;

  private:
    /** Fold shards into `blocks`/`edges` (sized by the plan). */
    void foldShards(std::vector<uint64_t> &blocks,
                    std::vector<uint64_t> &edges,
                    uint64_t &stray) const;

    /** Merge + window emit; caller holds mu_. */
    void mergeLocked(uint64_t execs, bool emit_window, Registry &metrics);

    const CovMapPlan plan_;
    std::vector<std::unique_ptr<CovShard>> shards_;

    mutable std::mutex mu_;
    /** Cumulative map as of the last merge point. */
    std::vector<uint64_t> merged_blocks_;
    std::vector<uint64_t> merged_edges_;
    uint64_t merged_stray_ = 0;
    CovSummary summary_;
    std::FILE *log_ = nullptr;
    bool finalized_ = false;
};

}  // namespace sp::obs

#endif  // SP_OBS_COVMAP_H
