/**
 * @file
 * Kernel basic blocks and the synthetic "assembly" token vocabulary.
 *
 * Each simulated-kernel basic block carries a short token sequence that
 * plays the role the x86 assembly text plays in the paper: it names the
 * operation the block performs and — for branch blocks — *which argument
 * slot* the comparison reads and a bucket of the constant it compares
 * against. This is exactly the signal the paper's Transformer encoder
 * extracts from real `cmp`/`je` instructions, and it is what lets the
 * learned mutator connect an uncovered branch back to the argument that
 * controls it.
 */
#ifndef SP_KERNEL_BLOCK_H
#define SP_KERNEL_BLOCK_H

#include <cstdint>
#include <vector>

#include "kernel/cond.h"

namespace sp::kern {

/** Sentinel for "no successor". */
constexpr uint32_t kNoBlock = ~0u;

/** Synthetic assembly token vocabulary. */
namespace token {

constexpr uint16_t kPad = 0;
constexpr uint16_t kOpMov = 1;
constexpr uint16_t kOpCmp = 2;
constexpr uint16_t kOpJe = 3;
constexpr uint16_t kOpJne = 4;
constexpr uint16_t kOpJb = 5;
constexpr uint16_t kOpJae = 6;
constexpr uint16_t kOpTest = 7;
constexpr uint16_t kOpAnd = 8;
constexpr uint16_t kOpCall = 9;
constexpr uint16_t kOpRet = 10;
constexpr uint16_t kOpLoad = 11;
constexpr uint16_t kOpStore = 12;
constexpr uint16_t kOpBug = 13;
constexpr uint16_t kOpState = 14;
constexpr uint16_t kOpResCheck = 15;

/** Maximum argument slots addressable by slot tokens. */
constexpr uint16_t kMaxSlots = 160;
constexpr uint16_t kSlotBase = 16;  ///< kSlotBase + slot index

/** Comparison-constant bucket tokens. */
constexpr uint16_t kConstBuckets = 48;
constexpr uint16_t kConstBase = kSlotBase + kMaxSlots;

/** Pseudo register-operand tokens for body blocks. */
constexpr uint16_t kRegCount = 16;
constexpr uint16_t kRegBase = kConstBase + kConstBuckets;

constexpr uint16_t kVocabSize = kRegBase + kRegCount;

/** Token naming argument slot `slot` (clamped into the vocabulary). */
uint16_t slotToken(uint16_t slot);

/** Token for the bucket of comparison constant `value`. */
uint16_t constToken(uint64_t value);

/** Token for pseudo-register r. */
uint16_t regToken(uint16_t r);

}  // namespace token

/** How a basic block transfers control. */
enum class Term : uint8_t {
    Fallthrough,  ///< unconditionally continue to `taken`
    Branch,       ///< `cond` true -> `taken`, false -> `fallthrough`
    Return,       ///< leave the system-call handler
};

/** One basic block of a system-call handler's CFG. */
struct BasicBlock
{
    uint32_t id = kNoBlock;
    uint32_t handler = ~0u;       ///< owning syscall id
    std::vector<uint16_t> tokens; ///< synthetic assembly
    Term term = Term::Return;
    Cond cond;                    ///< meaningful only for Term::Branch
    uint32_t taken = kNoBlock;
    uint32_t fallthrough = kNoBlock;
    /** Nesting depth of the guarded region this block sits in (0 = trunk). */
    uint16_t depth = 0;
};

/**
 * The static successor pair of one block, kNoBlock-padded: `taken` is
 * the branch-taken (or unconditional) target, `fallthrough` the
 * not-taken one. Edge slot `block * 2 + (to != taken)` is the dense
 * static-edge index the coverage accumulators share.
 */
struct StaticSuccessors
{
    uint32_t taken = kNoBlock;
    uint32_t fallthrough = kNoBlock;
};

/** Synthesize tokens for a branch block testing `cond`. */
std::vector<uint16_t> branchTokens(const Cond &cond);

/** Synthesize deterministic body tokens for a non-branch block. */
std::vector<uint16_t> bodyTokens(uint32_t block_id);

}  // namespace sp::kern

#endif  // SP_KERNEL_BLOCK_H
