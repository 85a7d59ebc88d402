#include "prog/flatten.h"

#include <numeric>

#include "util/hash.h"
#include "util/logging.h"

namespace sp::prog {

namespace {

/**
 * Whether the node owning `slot` exists in this call's value: slots
 * inside a currently-null pointer have no node to mutate until the
 * pointer is made non-null (the PtrNull slot itself stays reachable).
 */
bool
reachable(const Call &call, const SlotDesc &slot)
{
    const Arg *node = call.args[slot.path[0]].get();
    for (size_t i = 1; i < slot.path.size(); ++i) {
        if (node->type->kind == TypeKind::Ptr) {
            if (node->is_null)
                return false;
            node = node->pointee.get();
        } else {
            node = node->fields[slot.path[i]].get();
        }
    }
    return true;
}

void
flattenArg(const Arg &arg, std::span<const uint64_t> returns,
           std::vector<uint64_t> &out)
{
    switch (arg.type->kind) {
      case TypeKind::Int:
      case TypeKind::Flags:
      case TypeKind::Const:
      case TypeKind::Len:
        out.push_back(arg.scalar);
        break;
      case TypeKind::Resource:
        out.push_back(arg.result_ref >= 0 &&
                              static_cast<size_t>(arg.result_ref) <
                                  returns.size()
                          ? returns[static_cast<size_t>(arg.result_ref)]
                          : kBadHandle);
        break;
      case TypeKind::Ptr:
        out.push_back(arg.is_null ? 0 : 1);
        if (arg.is_null) {
            // Keep arity: emit zeroed slots for the whole pointee shape.
            const uint32_t n = slotCount(*arg.type->elem);
            out.insert(out.end(), n, 0);
        } else {
            flattenArg(*arg.pointee, returns, out);
        }
        break;
      case TypeKind::Struct:
        for (const auto &f : arg.fields)
            flattenArg(*f, returns, out);
        break;
      case TypeKind::Buffer:
        out.push_back(arg.bytes.size());
        out.push_back(fnv1aBytes(arg.bytes.data(), arg.bytes.size()) %
                      kBufferClassCount);
        break;
    }
}

}  // namespace

std::vector<uint64_t>
flattenCall(const Call &call, std::span<const uint64_t> returns)
{
    std::vector<uint64_t> out;
    flattenCallInto(call, returns, out);
    return out;
}

void
flattenCallInto(const Call &call, std::span<const uint64_t> returns,
                std::vector<uint64_t> &out)
{
    const size_t arity = call.decl->slots().size();
    out.clear();
    out.reserve(arity);
    for (const auto &arg : call.args)
        flattenArg(*arg, returns, out);
    SP_ASSERT(out.size() == arity,
              "flattened arity mismatch for %s", call.decl->name.c_str());
}

std::vector<uint64_t>
identityReturns(size_t calls)
{
    std::vector<uint64_t> table(calls);
    std::iota(table.begin(), table.end(), uint64_t{0});
    return table;
}

namespace {

MutationPoint
pointAt(const SlotDesc &slot)
{
    MutationPoint point;
    point.path = slot.path;
    point.type = slot.type;
    point.first_slot = slot.index;
    return point;
}

}  // namespace

std::vector<MutationPoint>
mutationPoints(const Call &call)
{
    const auto &slots = call.decl->slots();
    std::vector<MutationPoint> points;
    for (uint32_t s : call.decl->mutationPointSlots())
        if (reachable(call, slots[s]))
            points.push_back(pointAt(slots[s]));
    return points;
}

bool
hasMutationPoint(const Call &call)
{
    const auto &slots = call.decl->slots();
    for (uint32_t s : call.decl->mutationPointSlots())
        if (reachable(call, slots[s]))
            return true;
    return false;
}

size_t
countMutationPoints(const Call &call)
{
    const auto &slots = call.decl->slots();
    size_t count = 0;
    for (uint32_t s : call.decl->mutationPointSlots())
        count += reachable(call, slots[s]);
    return count;
}

MutationPoint
mutationPointAt(const Call &call, size_t k)
{
    const auto &slots = call.decl->slots();
    size_t left = k;
    for (uint32_t s : call.decl->mutationPointSlots()) {
        if (!reachable(call, slots[s]))
            continue;
        if (left-- == 0)
            return pointAt(slots[s]);
    }
    SP_PANIC("mutation point %zu out of range for %s", k,
             call.decl->name.c_str());
}

size_t
countMutableArgs(const Prog &prog)
{
    size_t total = 0;
    for (const auto &call : prog.calls)
        total += countMutationPoints(call);
    return total;
}

}  // namespace sp::prog
