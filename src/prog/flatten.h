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
 *    (resources carry the runtime resource id via a resolver).
 *  - Ptr: one nullness slot (0/1), then the pointee's slots.
 *  - Struct: no slot of its own; field slots in order.
 *  - Buffer: a length slot, then a content-class slot (a small stable
 *    hash bucket of the payload, standing in for data-dependent kernel
 *    branches on buffer contents).
 */
#ifndef SP_PROG_FLATTEN_H
#define SP_PROG_FLATTEN_H

#include <cstdint>
#include <functional>
#include <vector>

#include "prog/value.h"

namespace sp::prog {

/** Number of distinct buffer content classes (BufClass slot range). */
constexpr uint64_t kBufferClassCount = 64;

/** Value used for invalid / unresolved resource handles. */
constexpr uint64_t kBadHandle = ~0ULL;

/** Maps a resource argument's result_ref to its runtime id. */
using ResourceResolver = std::function<uint64_t(int32_t result_ref)>;

/**
 * Flatten a call's argument values into slots. `resolve` supplies
 * runtime ids for resource references (use staticResolver for analyses
 * that run without an executor).
 */
std::vector<uint64_t> flattenCall(const Call &call,
                                  const ResourceResolver &resolve);

/**
 * Flatten into a caller-owned buffer (cleared first, capacity kept).
 * The executor hot path reuses one buffer across every call of a
 * program instead of constructing a fresh vector per call.
 */
void flattenCallInto(const Call &call, const ResourceResolver &resolve,
                     std::vector<uint64_t> &out);

/** Resolver mapping any valid ref to its call index and -1 to bad. */
uint64_t staticResolver(int32_t result_ref);

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

/** All mutation points of a call, in flattening order. */
std::vector<MutationPoint> mutationPoints(const Call &call);

/** Same as `!mutationPoints(call).empty()`, without building them. */
bool hasMutationPoint(const Call &call);

/**
 * Total number of mutation points across all calls of a program
 * (the paper's "arguments available for mutation" count, §5.1).
 */
size_t countMutableArgs(const Prog &prog);

}  // namespace sp::prog

#endif  // SP_PROG_FLATTEN_H
