#include "exec/coverage.h"

#include <algorithm>

#include "obs/covmap.h"

namespace sp::exec {

namespace {

/** Set bit `index`; true iff it was clear. */
inline bool
testAndSet(std::vector<uint64_t> &bits, size_t index)
{
    uint64_t &word = bits[index >> 6];
    const uint64_t mask = uint64_t{1} << (index & 63);
    const bool fresh = (word & mask) == 0;
    word |= mask;
    return fresh;
}

}  // namespace

std::vector<uint32_t>
CoverageSet::sortedBlocks() const
{
    std::vector<uint32_t> sorted(blocks_);
    std::sort(sorted.begin(), sorted.end());
    return sorted;
}

std::vector<uint32_t>
CoverageSet::newBlocks(const CoverageSet &other) const
{
    const std::vector<uint32_t> have = sortedBlocks();
    std::vector<uint32_t> result;
    for (uint32_t b : other.blocks_) {
        if (!std::binary_search(have.begin(), have.end(), b))
            result.push_back(b);
    }
    return result;
}

size_t
CoverageSet::countNewEdges(const CoverageSet &other) const
{
    std::vector<uint64_t> have(edges_);
    std::sort(have.begin(), have.end());
    size_t count = 0;
    for (uint64_t e : other.edges_)
        count += !std::binary_search(have.begin(), have.end(), e);
    return count;
}

CoverageTotal::CoverageTotal(std::span<const kern::StaticSuccessors> succ)
    : succ_(succ), block_bits_((succ.size() + 63) / 64, 0),
      edge_bits_((succ.size() * 2 + 63) / 64, 0)
{
}

CoverageTotal::Growth
CoverageTotal::absorb(std::span<const uint32_t> blocks,
                      std::span<const uint64_t> edges)
{
    Growth growth;
    const size_t num_blocks = succ_.size();
    for (uint32_t block : blocks) {
        growth.blocks += block < num_blocks
                             ? testAndSet(block_bits_, block)
                             : stray_blocks_.insert(block).second;
    }
    for (uint64_t key : edges) {
        const auto from = static_cast<uint32_t>(key >> 32);
        const auto to = static_cast<uint32_t>(key);
        if (from < num_blocks && to != kern::kNoBlock) {
            const kern::StaticSuccessors &succ = succ_[from];
            if (to == succ.taken || to == succ.fallthrough) {
                growth.edges += testAndSet(
                    edge_bits_,
                    static_cast<size_t>(from) * 2 + (to != succ.taken));
                continue;
            }
        }
        growth.edges += stray_edges_.insert(key).second;
    }
    block_count_ += growth.blocks;
    edge_count_ += growth.edges;
    return growth;
}

bool
CoverageTotal::containsBlock(uint32_t block) const
{
    if (block >= succ_.size())
        return stray_blocks_.count(block) != 0;
    return (block_bits_[block >> 6] >> (block & 63)) & 1;
}

void
DenseCoverage::bind(const Successors *succ, size_t num_blocks)
{
    succ_ = succ;
    if (block_epoch_.size() != num_blocks) {
        block_epoch_.assign(num_blocks, 0);
        edge_epoch_.assign(num_blocks * 2, 0);
        epoch_ = 0;
    }
}

void
DenseCoverage::beginExec()
{
    if (++epoch_ == 0) {
        // Epoch counter wrapped: stale stamps from 4B execs ago could
        // alias, so pay one full clear and restart at 1.
        std::fill(block_epoch_.begin(), block_epoch_.end(), 0);
        std::fill(edge_epoch_.begin(), edge_epoch_.end(), 0);
        epoch_ = 1;
    }
    touched_blocks_.clear();
    touched_edges_.clear();
    stray_edges_.clear();
}

template <bool kRecord>
void
DenseCoverage::fold(const uint32_t *trace, size_t len, obs::CovShard *hits)
{
    [[maybe_unused]] const obs::CovMapPlan::Successors *plan = nullptr;
    if constexpr (kRecord) {
        plan = hits->plan().succ.data();
        if (len != 0)
            hits->enter(trace[0]);  // a trace start is a direct entry
    }
    for (size_t i = 0; i < len; ++i) {
        const uint32_t block = trace[i];
        if (block_epoch_[block] != epoch_) {
            block_epoch_[block] = epoch_;
            touched_blocks_.push_back(block);
        }
        if (i + 1 == len)
            continue;
        const uint32_t to = trace[i + 1];
        // The step's successor slot: 0, 1, or 2 for a stray transition.
        size_t k;
        if constexpr (kRecord) {
            const obs::CovMapPlan::Successors &s = plan[block];
            k = to == s.to[0] ? 0 : to == s.to[1] ? 1 : 2;
        } else {
            const Successors &s = succ_[block];
            k = to == s.taken ? 0 : to == s.fallthrough ? 1 : 2;
        }
        if (k < 2) {
            const size_t slot = static_cast<size_t>(block) * 2 + k;
            if (edge_epoch_[slot] != epoch_) {
                edge_epoch_[slot] = epoch_;
                touched_edges_.push_back(edgeKey(block, to));
            }
            if constexpr (kRecord)
                hits->cross(plan[block].edge[k]);
        } else {
            // Stray interrupt-noise transition: not in the static CFG.
            // At most one per call, so the linear dedup scan is cheap.
            const uint64_t key = edgeKey(block, to);
            if (std::find(stray_edges_.begin(), stray_edges_.end(),
                          key) == stray_edges_.end()) {
                stray_edges_.push_back(key);
                touched_edges_.push_back(key);
            }
            if constexpr (kRecord)
                hits->stray(to);
        }
    }
}

void
DenseCoverage::addTrace(const uint32_t *trace, size_t len)
{
    fold<false>(trace, len, nullptr);
}

void
DenseCoverage::addTrace(const uint32_t *trace, size_t len,
                        obs::CovShard &hits)
{
    fold<true>(trace, len, &hits);
}

}  // namespace sp::exec
