/**
 * @file
 * Coverage accounting: sets of covered basic blocks and of directed
 * block-to-block edges ("unique, directional pairs of basic blocks",
 * §5.3.1). Blocks drive the mutation-query graph and dataset targets;
 * edges are the metric the paper's Figure 6 reports.
 *
 * CoverageSet is one execution's coverage, a plain value: two
 * duplicate-free vectors, blocks and packed edge keys, each in
 * first-visit order (the order the program's traces first reach
 * them). Both backends emit exactly that order, and the query graph's
 * kernel-side node order depends on it. Immutable once built, so
 * admitted corpus entries are safe to read from every worker.
 *
 * DenseCoverage is the fast execution backend's per-exec accumulator:
 * an epoch-stamped dense bitmap sized from the kernel's static block
 * count, never cleared between execs (the epoch bump invalidates the
 * whole map in O(1)); its touched lists become the CoverageSet.
 *
 * CoverageTotal is the running union over many executions (the corpus
 * total, the fleet aggregate): bitsets over the same dense block and
 * static-edge index, so folding one result in is a test-and-set per id
 * of the result.
 */
#ifndef SP_EXEC_COVERAGE_H
#define SP_EXEC_COVERAGE_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "kernel/block.h"

namespace sp::obs {
class CovShard;
}

namespace sp::exec {

/** Pack a directed edge into one key. */
inline uint64_t
edgeKey(uint32_t from, uint32_t to)
{
    return (static_cast<uint64_t>(from) << 32) | to;
}

/** One execution's covered blocks and edges, in first-visit order. */
class CoverageSet
{
  public:
    CoverageSet() = default;

    /** Adopt `blocks` and packed `edges`; each must be duplicate-free. */
    CoverageSet(std::vector<uint32_t> blocks, std::vector<uint64_t> edges)
        : blocks_(std::move(blocks)), edges_(std::move(edges))
    {
    }

    const std::vector<uint32_t> &blocks() const { return blocks_; }
    const std::vector<uint64_t> &edges() const { return edges_; }
    size_t blockCount() const { return blocks_.size(); }
    size_t edgeCount() const { return edges_.size(); }

    /** blocks() in ascending order: the one lookup a membership query
     *  builds, probed by binary search. */
    std::vector<uint32_t> sortedBlocks() const;

    /** Blocks of `other` absent here (the paper's c_ij \ c_i), in
     *  `other`'s order. */
    std::vector<uint32_t> newBlocks(const CoverageSet &other) const;

    /** Number of edges of `other` absent here. */
    size_t countNewEdges(const CoverageSet &other) const;

  private:
    std::vector<uint32_t> blocks_;
    std::vector<uint64_t> edges_;
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

    /** Fold one call's block trace in: every visited block, and every
     *  consecutive pair as a directed edge. */
    void addTrace(const uint32_t *trace, size_t len);

    /**
     * addTrace that also counts every visit into `hits`, the covmap's
     * per-worker counters, in the same pass: what
     * obs::CovShard::recordTrace would count over the trace. Each step
     * resolves against the plan's successor record, which also carries
     * the dense edge id, so recording adds no lookup. The plan's
     * successor slots must be the bound table's (a plan built from the
     * kernel's staticEdges() has them; the campaign checks once).
     */
    void addTrace(const uint32_t *trace, size_t len, obs::CovShard &hits);

    /** Unique blocks touched this exec, in first-visit order. */
    const std::vector<uint32_t> &touchedBlocks() const
    {
        return touched_blocks_;
    }

    /** Unique packed edge keys touched this exec, in first-visit
     *  order. */
    const std::vector<uint64_t> &touchedEdges() const
    {
        return touched_edges_;
    }

  private:
    /** The one trace pass, with or without hit counting. */
    template <bool kRecord>
    void fold(const uint32_t *trace, size_t len, obs::CovShard *hits);

    const Successors *succ_ = nullptr;
    uint32_t epoch_ = 0;
    std::vector<uint32_t> block_epoch_;
    std::vector<uint32_t> edge_epoch_;  ///< 2 slots per block
    std::vector<uint32_t> touched_blocks_;
    std::vector<uint64_t> touched_edges_;
    std::vector<uint64_t> stray_edges_;  ///< non-static, this exec
};

/**
 * Running union of many executions' coverage (the corpus total and
 * the fleet aggregate), kept dense: one bit per kernel block and one per static-edge slot (block
 * * 2 + successor, DenseCoverage's index). Stray edges outside the
 * static CFG, and ids beyond the successor table, go to small side
 * sets. absorb() is one test-and-set per id of the result, so its cost
 * scales with the result, never with the total. Not thread-safe: the
 * corpus serializes it under its admission lock, the fleet under the
 * coordinator's.
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

    /** Fold blocks and packed edge keys in (duplicates allowed);
     *  returns what was new. */
    Growth absorb(std::span<const uint32_t> blocks,
                  std::span<const uint64_t> edges);

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
