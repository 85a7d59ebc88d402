/**
 * @file
 * Flattening of argument trees into fixed-arity value-slot vectors.
 *
 * The simulated kernel's branch predicates read *slots*: a pre-order
 * flattening of a call's argument tree into uint64 values. The slot
 * order is a function of the SyscallDecl alone (null pointers still emit
 * zeroed slots for their pointee subtree), so slot indices are stable
 * across all values of a call — this is what lets kernel predicates,
 * training labels, and graph argument nodes all refer to "argument k of
 * syscall s" coherently. That static layout (SlotDesc, enumerateSlots)
 * lives in types.h; each decl keeps its own copy, read through
 * SyscallDecl::slots() by this file's call-level functions.
 *
 * Slot discipline per type kind:
 *  - Int/Flags/Const/Len/Resource: one slot carrying the value
 *    (resources carry the runtime resource id from a return table).
 *  - Ptr: one nullness slot (0/1), then the pointee's slots.
 *  - Struct: no slot of its own; field slots in order.
 *  - Buffer: a length slot, then a content-class slot (a small stable
 *    hash bucket of the payload, standing in for data-dependent kernel
 *    branches on buffer contents).
 */
#ifndef SP_PROG_FLATTEN_H
#define SP_PROG_FLATTEN_H

#include <cstdint>
#include <span>
#include <vector>

#include "prog/value.h"

namespace sp::prog {

/** Number of distinct buffer content classes (BufClass slot range). */
constexpr uint64_t kBufferClassCount = 64;

/** Value used for invalid / unresolved resource handles. */
constexpr uint64_t kBadHandle = ~0ULL;

/**
 * Flatten a call's argument values into slots. `returns` is the
 * return-value table of the calls before this one: a resource
 * argument's result_ref k is valid iff 0 <= k < returns.size() and
 * then carries returns[k]; any other ref carries kBadHandle.
 */
std::vector<uint64_t> flattenCall(const Call &call,
                                  std::span<const uint64_t> returns);

/**
 * Flatten into a caller-owned buffer (cleared first, capacity kept).
 * The executor hot path reuses one buffer across every call of a
 * program instead of constructing a fresh vector per call.
 */
void flattenCallInto(const Call &call, std::span<const uint64_t> returns,
                     std::vector<uint64_t> &out);

/**
 * The identity return table over `calls` calls (ref k carries k), for
 * analyses that flatten without an executor.
 */
std::vector<uint64_t> identityReturns(size_t calls);

/**
 * Points in a call where the mutation engine can act. One point may
 * cover several slots (a buffer owns both its length and content slot).
 */
struct MutationPoint
{
    std::vector<uint16_t> path;  ///< Arg path of the mutable node
    TypeRef type;                ///< node type
    uint32_t first_slot = 0;     ///< first slot owned by the node
};

/**
 * All mutation points of a call, in flattening order: the decl's
 * mutationPointSlots() whose node exists in this value (a point inside
 * a null pointer has no node until the pointer is filled in).
 */
std::vector<MutationPoint> mutationPoints(const Call &call);

/** Same as `!mutationPoints(call).empty()`, without building them. */
bool hasMutationPoint(const Call &call);

/** Same as `mutationPoints(call).size()`, without building them. */
size_t countMutationPoints(const Call &call);

/** Same as `mutationPoints(call)[k]`, building only that point;
 *  `k` must be below countMutationPoints(call). */
MutationPoint mutationPointAt(const Call &call, size_t k);

/**
 * Total number of mutation points across all calls of a program
 * (the paper's "arguments available for mutation" count, §5.1).
 */
size_t countMutableArgs(const Prog &prog);

}  // namespace sp::prog

#endif  // SP_PROG_FLATTEN_H
