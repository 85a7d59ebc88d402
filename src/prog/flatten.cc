#include "prog/flatten.h"

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
flattenArg(const Arg &arg, const ResourceResolver &resolve,
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
        out.push_back(resolve(arg.result_ref));
        break;
      case TypeKind::Ptr:
        out.push_back(arg.is_null ? 0 : 1);
        if (arg.is_null) {
            // Keep arity: emit zeroed slots for the whole pointee shape.
            const uint32_t n = slotCount(*arg.type->elem);
            out.insert(out.end(), n, 0);
        } else {
            flattenArg(*arg.pointee, resolve, out);
        }
        break;
      case TypeKind::Struct:
        for (const auto &f : arg.fields)
            flattenArg(*f, resolve, out);
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
flattenCall(const Call &call, const ResourceResolver &resolve)
{
    std::vector<uint64_t> out;
    flattenCallInto(call, resolve, out);
    return out;
}

void
flattenCallInto(const Call &call, const ResourceResolver &resolve,
                std::vector<uint64_t> &out)
{
    const size_t arity = call.decl->slots().size();
    out.clear();
    out.reserve(arity);
    for (const auto &arg : call.args)
        flattenArg(*arg, resolve, out);
    SP_ASSERT(out.size() == arity,
              "flattened arity mismatch for %s", call.decl->name.c_str());
}

uint64_t
staticResolver(int32_t result_ref)
{
    return result_ref < 0 ? kBadHandle
                          : static_cast<uint64_t>(result_ref);
}

std::vector<MutationPoint>
mutationPoints(const Call &call)
{
    std::vector<MutationPoint> points;
    for (const auto &slot : call.decl->slots()) {
        if (!slot.is_mutable)
            continue;
        // A buffer contributes two slots; collapse onto one point.
        if (!points.empty() && points.back().path == slot.path)
            continue;
        if (!reachable(call, slot))
            continue;
        MutationPoint point;
        point.path = slot.path;
        point.type = slot.type;
        point.first_slot = slot.index;
        points.push_back(std::move(point));
    }
    return points;
}

bool
hasMutationPoint(const Call &call)
{
    for (const auto &slot : call.decl->slots())
        if (slot.is_mutable && reachable(call, slot))
            return true;
    return false;
}

size_t
countMutableArgs(const Prog &prog)
{
    size_t total = 0;
    for (const auto &call : prog.calls)
        total += mutationPoints(call).size();
    return total;
}

}  // namespace sp::prog
