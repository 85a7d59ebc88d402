/**
 * @file
 * The simulated kernel: syscall table, handler CFGs, bug sites, and the
 * single-call execution engine with basic-block tracing.
 *
 * This module is the reproduction's substitute for a KCOV-instrumented
 * Linux kernel. Handlers are control-flow graphs whose branch predicates
 * read the calling test's flattened argument slots and the kernel state;
 * executing a call walks the CFG and records every visited block, which
 * the executor turns into edge coverage. Selected deep blocks are bug
 * sites: reaching one crashes the "kernel" with a categorized report.
 */
#ifndef SP_KERNEL_KERNEL_H
#define SP_KERNEL_KERNEL_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/block.h"
#include "kernel/state.h"
#include "prog/types.h"
#include "util/rng.h"

namespace sp::kern {

/** Post-return state transition of a handler. */
struct SyscallEffect
{
    enum class Kind : uint8_t {
        None,
        AllocResource,  ///< allocate `resource_kind`; its id is returned
        FreeResource,   ///< release the resource named by slot `slot`
        SetFlag,        ///< set state flag `flag`
        ClearFlag,      ///< clear state flag `flag`
    };
    Kind kind = Kind::None;
    ResourceKindId resource_kind = 0;
    uint16_t flag = 0;
    uint16_t slot = 0;
};

/** One system-call handler: entry block plus declared effects. */
struct Handler
{
    uint32_t syscall_id = 0;
    uint32_t entry = kNoBlock;
    uint16_t num_slots = 0;
    std::vector<SyscallEffect> effects;
};

/** Manifestation category of a planted bug (paper Table 3). */
enum class BugKind : uint8_t {
    NullDeref,
    PagingFault,
    AssertViolation,
    GeneralProtectionFault,
    OutOfBounds,
    Warning,
    Other,
};

/** Human-readable name of a bug kind. */
const char *bugKindName(BugKind kind);

/** A planted bug: reaching `block` crashes the kernel. */
struct BugSite
{
    uint32_t block = kNoBlock;
    BugKind kind = BugKind::Other;
    std::string description;  ///< e.g. "out-of-bounds write in ata_pio"
    std::string location;     ///< e.g. "drivers/ata/libata-sff.c"
    /**
     * Flaky bugs additionally require a nondeterministic timing bit
     * (standing in for concurrency), so they resist reproduction.
     */
    bool flaky = false;
    /** Present in the continuous-fuzzing known-crash list (Syzbot). */
    bool known = false;
};

/** Outcome of executing a single system call. */
struct CallResult
{
    uint64_t ret = 0;       ///< returned value (resource id if produced)
    bool crashed = false;
    uint32_t bug_index = 0;  ///< valid when crashed
};

/**
 * An immutable simulated kernel. Construct through KernelBuilder
 * (hand-written subsystems) or generateKernel (synthetic bulk).
 */
class Kernel
{
  public:
    /** @name Structure */
    /** @{ */
    const prog::SyscallTable &table() const { return table_; }
    const std::vector<BasicBlock> &blocks() const { return blocks_; }
    const BasicBlock &block(uint32_t id) const;
    const std::vector<Handler> &handlers() const { return handlers_; }
    const Handler &handler(uint32_t syscall_id) const;
    const std::vector<BugSite> &bugs() const { return bugs_; }
    uint16_t numFlags() const { return num_flags_; }
    const std::vector<std::string> &resourceKinds() const
    {
        return resource_kinds_;
    }
    ResourceKindId resourceKindId(const std::string &name) const;
    const std::string &version() const { return version_; }
    /** @} */

    /** Fresh state sized for this kernel. */
    KernelState initialState() const { return KernelState(num_flags_); }

    /**
     * Execute one call: walk the handler CFG from its entry, appending
     * every visited block id to `trace`. `noise`, when non-null, is the
     * nondeterministic timing source (enables flaky bug triggering and
     * stray interrupt blocks); pass nullptr for the deterministic
     * data-collection mode (§3.1).
     */
    CallResult executeCall(uint32_t syscall_id,
                           const std::vector<uint64_t> &slots,
                           KernelState &state,
                           std::vector<uint32_t> &trace,
                           Rng *noise = nullptr) const;

    /**
     * Static CFG successors of a block (0, 1 or 2 entries). Used for
     * the one-hop alternative-block analysis (§3.2).
     */
    std::vector<uint32_t> successors(uint32_t block) const;

    /**
     * Per-block static successor pairs, one entry per block, sealed
     * by KernelBuilder::finish(). The exec backend's per-exec dedup
     * and the corpus coverage total both index edges through it.
     */
    const std::vector<StaticSuccessors> &successorTable() const
    {
        return successor_table_;
    }

    /** All directed static edges (from, to). */
    std::vector<std::pair<uint32_t, uint32_t>> staticEdges() const;

    /** Bug site planted at `block`, or nullptr. */
    const BugSite *bugAt(uint32_t block) const;

  private:
    friend class KernelBuilder;

    /** Sentinel of bug_index_at_block_: no bug planted here. */
    static constexpr uint32_t kNoBug = ~0u;

    /**
     * Bug index planted at `block`, or kNoBug. Reads the dense
     * per-block table sealed by KernelBuilder::finish(); the map is
     * the fallback for kernels that were never sealed (empty ones).
     */
    uint32_t
    bugIndexAt(uint32_t block) const
    {
        if (block < bug_index_at_block_.size())
            return bug_index_at_block_[block];
        auto it = bug_at_block_.find(block);
        return it == bug_at_block_.end() ? kNoBug : it->second;
    }

    prog::SyscallTable table_;
    std::vector<BasicBlock> blocks_;
    std::vector<Handler> handlers_;
    std::vector<BugSite> bugs_;
    std::unordered_map<uint32_t, uint32_t> bug_at_block_;
    /** Dense mirror of bug_at_block_ (kNoBug = none), one entry per
     *  block — the CFG walk checks every visited block, and the dense
     *  lookup beats the hash probe on that hot path. */
    std::vector<uint32_t> bug_index_at_block_;
    std::vector<StaticSuccessors> successor_table_;
    std::vector<std::string> resource_kinds_;
    uint16_t num_flags_ = 0;
    std::string version_ = "sim";
    /** Blocks that noise can visit spuriously (interrupt handlers). */
    std::vector<uint32_t> interrupt_blocks_;
};

}  // namespace sp::kern

#endif  // SP_KERNEL_KERNEL_H
