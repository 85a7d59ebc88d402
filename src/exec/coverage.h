/**
 * @file
 * Coverage accounting: sets of covered basic blocks and of directed
 * block-to-block edges ("unique, directional pairs of basic blocks",
 * §5.3.1). Blocks drive the mutation-query graph and dataset targets;
 * edges are the metric the paper's Figure 6 reports.
 *
 * CoverageSet is the stable API the triage/admit pipeline consumes. It
 * has two internal representations:
 *
 *  - hash mode: unordered sets, built by addTrace()/merge(). This is
 *    the accumulating form (corpus totals, checkpoint sets) and the
 *    form every probing API answers from.
 *  - staged mode: the pre-deduplicated block/edge vectors handed over
 *    by addUnique() — the fast execution backend's conversion
 *    boundary. Staying staged makes per-exec coverage nearly free to
 *    build; the common consumers (countNewBlocks/merge iterate the
 *    *other* set; blockCount/edgeCount; containsBlock on a small set)
 *    never need the hash sets. The first call that does (blocks()/edges(),
 *    probing a staged set, addTrace on top) promotes to hash mode
 *    transparently.
 *
 * Promotion mutates under const, so a staged set must not be shared
 * across threads; hash-mode sets (anything built via addTrace/merge,
 * i.e. every accumulating set in the pipeline) are safe for concurrent
 * reads. Per-exec results live and die on one worker thread.
 *
 * DenseCoverage is the fast execution backend's per-exec accumulator:
 * an epoch-stamped dense bitmap sized from the kernel's static block
 * count, never cleared between execs (the epoch bump invalidates the
 * whole map in O(1)), converted into a CoverageSet once per program at
 * the API boundary.
 *
 * CoverageTotal is the corpus's running union over every execution:
 * bitsets over the same dense block and static-edge index, so folding
 * one result in is a test-and-set per id of the result.
 */
#ifndef SP_EXEC_COVERAGE_H
#define SP_EXEC_COVERAGE_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "kernel/block.h"

namespace sp::exec {

/** Pack a directed edge into one key. */
inline uint64_t
edgeKey(uint32_t from, uint32_t to)
{
    return (static_cast<uint64_t>(from) << 32) | to;
}

/** A set of covered blocks and edges. */
class CoverageSet
{
  public:
    /**
     * Fold one call's block trace in: every visited block, and every
     * consecutive pair as a directed edge.
     */
    void addTrace(const std::vector<uint32_t> &trace);

    /**
     * Bulk-load pre-deduplicated blocks and packed edge keys (the
     * DenseCoverage conversion boundary). The inputs must each be
     * duplicate-free. On an empty set this only stages the vectors —
     * O(size) copies, no hashing; hash sets are built lazily if an
     * API needs them.
     */
    void addUnique(const std::vector<uint32_t> &blocks,
                   const std::vector<uint64_t> &edges);

    /** Merge another coverage set into this one. */
    void merge(const CoverageSet &other);

    /** Blocks/edges in `other` that this set lacks. */
    size_t countNewBlocks(const CoverageSet &other) const;
    size_t countNewEdges(const CoverageSet &other) const;

    /** Blocks in `other` absent here (the paper's c_ij \ c_i). */
    std::vector<uint32_t> newBlocks(const CoverageSet &other) const;

    /** Membership probe (staged sets scan; hash sets hash). */
    bool containsBlock(uint32_t block) const;
    bool containsEdge(uint32_t from, uint32_t to) const;

    size_t blockCount() const
    {
        return staged_ ? staged_blocks_.size() : blocks_.size();
    }
    size_t edgeCount() const
    {
        return staged_ ? staged_edges_.size() : edges_.size();
    }
    bool empty() const { return blockCount() == 0; }

    /** @name Hash-set views (promote a staged set on first use) */
    /** @{ */
    const std::unordered_set<uint32_t> &blocks() const
    {
        promote();
        return blocks_;
    }
    const std::unordered_set<uint64_t> &edges() const
    {
        promote();
        return edges_;
    }
    /** @} */

    /** Iterate blocks/edges in whatever mode the set is in (no
     *  promotion; order unspecified). */
    template <typename Fn>
    void
    eachBlock(Fn &&fn) const
    {
        if (staged_) {
            for (uint32_t b : staged_blocks_)
                fn(b);
        } else {
            for (uint32_t b : blocks_)
                fn(b);
        }
    }
    template <typename Fn>
    void
    eachEdge(Fn &&fn) const
    {
        if (staged_) {
            for (uint64_t e : staged_edges_)
                fn(e);
        } else {
            for (uint64_t e : edges_)
                fn(e);
        }
    }

  private:
    /** Move staged vectors into the hash sets (no-op in hash mode). */
    void promote() const;

    mutable std::unordered_set<uint32_t> blocks_;
    mutable std::unordered_set<uint64_t> edges_;
    mutable std::vector<uint32_t> staged_blocks_;
    mutable std::vector<uint64_t> staged_edges_;
    mutable bool staged_ = false;
};

/**
 * Epoch-stamped dense per-exec coverage accumulator.
 *
 * Dedup is O(1) per trace element: blocks index a dense epoch array;
 * edges that follow the static CFG index a two-slots-per-block epoch
 * array (every block has at most two static successors). Edges outside
 * the static CFG — stray interrupt-noise transitions — land in a small
 * per-exec side list (at most one per call, linear-scanned). Nothing
 * is cleared between execs: beginExec() bumps the epoch, which
 * invalidates every stamp at once.
 */
class DenseCoverage
{
  public:
    /** Static successor pair of one block (Kernel::successorTable). */
    using Successors = kern::StaticSuccessors;

    /**
     * Bind to a kernel topology: `succ` holds one entry per block and
     * must stay valid for the duration of the exec. Re-binding with a
     * different block count resets the epoch arrays; re-binding with
     * the same count is free (the arrays carry over).
     */
    void bind(const Successors *succ, size_t num_blocks);

    /** Start a new exec: O(1) epoch bump, touched lists cleared. */
    void beginExec();

    /** Fold one call's block trace in (same semantics as
     *  CoverageSet::addTrace). */
    void addTrace(const uint32_t *trace, size_t len);

    /** Unique blocks touched this exec, in first-visit order. */
    const std::vector<uint32_t> &touchedBlocks() const
    {
        return touched_blocks_;
    }

    /** Unique packed edge keys touched this exec. */
    const std::vector<uint64_t> &touchedEdges() const
    {
        return touched_edges_;
    }

    /** Convert this exec's accumulation into the CoverageSet API. */
    void exportTo(CoverageSet &out) const
    {
        out.addUnique(touched_blocks_, touched_edges_);
    }

  private:
    const Successors *succ_ = nullptr;
    uint32_t epoch_ = 0;
    std::vector<uint32_t> block_epoch_;
    std::vector<uint32_t> edge_epoch_;  ///< 2 slots per block
    std::vector<uint32_t> touched_blocks_;
    std::vector<uint64_t> touched_edges_;
    std::vector<uint64_t> stray_edges_;  ///< non-static, this exec
};

/**
 * Running union of many executions' coverage (the corpus total), kept
 * dense: one bit per kernel block and one per static-edge slot (block
 * * 2 + successor, DenseCoverage's index). Stray edges outside the
 * static CFG, and ids beyond the successor table, go to small side
 * sets. absorb() is one test-and-set per id of the result, so its cost
 * scales with the result, never with the total. Not thread-safe: the
 * corpus serializes it under its admission lock.
 */
class CoverageTotal
{
  public:
    /** What one absorb() added to the total. */
    struct Growth
    {
        size_t blocks = 0;
        size_t edges = 0;
    };

    /** No topology: every block and edge lands in the side sets. */
    CoverageTotal() = default;

    /** `succ` holds one entry per block and must outlive this total. */
    explicit CoverageTotal(std::span<const kern::StaticSuccessors> succ);

    /** Fold one execution's coverage in; returns what was new. */
    Growth absorb(const CoverageSet &coverage);

    bool containsBlock(uint32_t block) const;
    size_t blockCount() const { return block_count_; }
    size_t edgeCount() const { return edge_count_; }

  private:
    std::span<const kern::StaticSuccessors> succ_;
    std::vector<uint64_t> block_bits_;
    std::vector<uint64_t> edge_bits_;  ///< 2 slots per block
    std::unordered_set<uint32_t> stray_blocks_;
    std::unordered_set<uint64_t> stray_edges_;
    size_t block_count_ = 0;
    size_t edge_count_ = 0;
};

}  // namespace sp::exec

#endif  // SP_EXEC_COVERAGE_H
