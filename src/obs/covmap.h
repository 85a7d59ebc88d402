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
 *    (single writer, merge-time readers): recording a trace is one
 *    successor-record load and one relaxed load+store increment per
 *    visited block (no RMW lock — the writer is unique), no locks, no
 *    allocation;
 *  - the checkpoint owner (already serialized by the campaign's
 *    in-order checkpoint emission) calls onCheckpoint(), which folds
 *    every shard into one CovCounts, derives the window delta (what
 *    became newly-reached / hotter since the last checkpoint), appends
 *    a delta-encoded JSONL record to the snapshot log, updates the live
 *    summary served by /coverage, and refreshes the covmap.* metrics
 *    in the registry it is handed (the campaign's).
 *
 * CovCounts is the one merged hit state in the tree: the campaign's
 * CovMap, the fleet's FleetAggregate and the offline CovProfile each
 * hold one, and summarize() / summaryJson() are the one summary and
 * the one /coverage writer over it.
 *
 * Frontier definition (plan-level, no kernel required): a *frontier
 * guard* is a reached block with two static successors of which at
 * least one was never reached; each unreached successor is a *frontier
 * target*, ranked by guard hit count (descending — the branches a
 * campaign keeps reaching but never crosses are the best directed
 * targets) with target then guard block id as the deterministic
 * tie-breaks. Shard merging
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

    /** One block's static successors and their dense edge ids,
     *  kNone-padded: one 16-byte record, one cache access per step.
     *  Slots follow the order the block's edges are listed in at
     *  build(): Kernel::staticEdges() lists the taken successor, then
     *  a distinct fallthrough, so slot k is the kernel's successor
     *  slot k (the slot exec::DenseCoverage indexes). */
    struct Successors
    {
        std::array<uint32_t, 2> to{kNone, kNone};
        std::array<uint32_t, 2> edge{kNone, kNone};
    };

    size_t num_blocks = 0;
    /** Dense edge id -> (from, to); unique static edges, sorted. */
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    /** Per-block static successors (at most two). */
    std::vector<Successors> succ;

    size_t numEdges() const { return edges.size(); }

    /**
     * Build the plan from plain CFG data. Dense edge ids follow the
     * sorted unique edge list; a block's successor slots follow the
     * input order. Duplicate edges are folded; a block's third and
     * further distinct successors (impossible for two-way branch CFGs,
     * tolerated for robustness) stay out of the successor slots and
     * count as stray transitions at record time.
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
 *
 * A visit that arrives over a static edge bumps only that edge: the
 * block's hit count is derived at merge time as its direct entries
 * (trace starts, entries over stray transitions) plus its incoming
 * static-edge hits, which halves the counter traffic per visited
 * block.
 */
class CovShard
{
  public:
    /** Fold one call's block trace in: block hits plus consecutive-pair
     *  static-edge hits; non-static transitions tally as stray. */
    void recordTrace(const std::vector<uint32_t> &blocks);

    /**
     * @name Per-step hooks
     * The same counting recordTrace does, one trace step at a time, for
     * the fast executor's coverage pass (exec::DenseCoverage), which
     * already resolves every step against the plan's successor slots.
     * Ids must be in the plan's range.
     */
    /** @{ */
    const CovMapPlan &plan() const { return *plan_; }
    /** A trace starts at `block`: a direct entry. */
    void enter(uint32_t block) { bump(block_hits_[block]); }
    /** A step crossed static edge `edge` (a dense id). */
    void cross(uint32_t edge) { bump(edge_hits_[edge]); }
    /** A step reached `block` over a non-static transition. */
    void stray(uint32_t block)
    {
        bump(stray_edges_);
        bump(block_hits_[block]);
    }
    /** @} */

  private:
    friend class CovMap;

    explicit CovShard(const CovMapPlan *plan);

    /**
     * Single-writer increment: each counter has exactly one writing
     * thread (the shard's worker), so a relaxed load+store pair is the
     * same count as fetch_add without the read-modify-write lock — the
     * difference between a plain add and `lock xadd` on every visited
     * block is most of the recording overhead budget.
     */
    static void
    bump(std::atomic<uint64_t> &counter)
    {
        counter.store(counter.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    }

    const CovMapPlan *plan_;
    /** Direct entries only (see the class comment). */
    std::unique_ptr<std::atomic<uint64_t>[]> block_hits_;
    std::unique_ptr<std::atomic<uint64_t>[]> edge_hits_;
    std::atomic<uint64_t> stray_edges_{0};
};

/** Merged hit counts over one plan. */
struct CovCounts
{
    std::vector<uint64_t> blocks;  ///< visits per block
    std::vector<uint64_t> edges;   ///< hits per dense static edge
    uint64_t stray = 0;            ///< transitions outside the static CFG

    CovCounts() = default;
    /** All-zero counts sized by `plan`. */
    explicit CovCounts(const CovMapPlan &plan)
        : blocks(plan.num_blocks, 0), edges(plan.numEdges(), 0)
    {
    }

    bool operator==(const CovCounts &) const = default;
};

/** One ranked cold-frontier entry of the live summary. */
struct FrontierEntry
{
    uint32_t target = CovMapPlan::kNone;  ///< unreached successor block
    uint32_t guard = CovMapPlan::kNone;   ///< reached branch guarding it
    uint64_t guard_hits = 0;

    bool operator==(const FrontierEntry &) const = default;
};

/**
 * Ranked cold-frontier targets over a merged block-hit map: every
 * unreached static successor of a reached two-way branch, ordered by
 * guard hits descending, then target and guard block id ascending (a
 * total order, so the ranking does not depend on slot order).
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

    bool operator==(const CovSummary &) const = default;
};

/** Summarize `counts` at virtual time `execs`; `cap` > 0 truncates
 *  `top_frontier` (`frontier_size` counts every target). */
CovSummary summarize(const CovMapPlan &plan, const CovCounts &counts,
                     uint64_t execs, uint64_t windows, size_t cap);

/** The /coverage JSON payload of `summary` over `plan`. */
std::string summaryJson(const CovMapPlan &plan, const CovSummary &summary);

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

    /** Merged counts as of the last merge point (copy under lock). */
    CovCounts merged() const;

    /** Latest merged summary (copy under lock). */
    CovSummary summary() const;

    /** Bytes resident in shards + merged map (covmap.resident_bytes). */
    size_t residentBytes() const;

  private:
    /** Every shard's counts, summed. */
    CovCounts foldShards() const;

    /** Merge + window emit; caller holds mu_. */
    void mergeLocked(uint64_t execs, Registry &metrics);

    const CovMapPlan plan_;
    std::vector<std::unique_ptr<CovShard>> shards_;

    mutable std::mutex mu_;
    /** Cumulative counts as of the last merge point. */
    CovCounts merged_;
    CovSummary summary_;
    std::FILE *log_ = nullptr;
    bool finalized_ = false;
};

}  // namespace sp::obs

#endif  // SP_OBS_COVMAP_H
