#include "mutate/mutator.h"

#include <algorithm>
#include <cstddef>

#include "util/logging.h"

namespace sp::mut {

namespace {

using prog::Arg;
using prog::TypeKind;

void
mutateScalar(Arg &arg, Rng &rng)
{
    const auto &type = *arg.type;
    const double roll = rng.uniform();
    if (type.kind == TypeKind::Flags) {
        if (!type.domain.empty() && roll < 0.35) {
            // Toggle one declared flag bit.
            arg.scalar ^= type.domain[rng.below(type.domain.size())];
        } else if (!type.domain.empty() && roll < 0.7) {
            // Replace with a declared value (or a small OR-combo).
            arg.scalar = type.domain[rng.below(type.domain.size())];
            if (type.combinable && rng.chance(0.4)) {
                arg.scalar |=
                    type.domain[rng.below(type.domain.size())];
            }
        } else if (roll < 0.85) {
            arg.scalar = 0;
        } else {
            arg.scalar = rng.next() & 0xffff;
        }
        return;
    }
    // Int / Len-as-int fallbacks.
    if (!type.domain.empty() && roll < 0.4) {
        arg.scalar = type.domain[rng.below(type.domain.size())];
    } else if (roll < 0.6) {
        // Small additive nudge.
        const int64_t delta = rng.range(-16, 16);
        arg.scalar = static_cast<uint64_t>(
            static_cast<int64_t>(arg.scalar) + delta);
    } else if (roll < 0.8) {
        arg.scalar = static_cast<uint64_t>(
            rng.range(type.min, std::max(type.min, type.max)));
    } else {
        switch (rng.below(4)) {
          case 0:
            arg.scalar = 0;
            break;
          case 1:
            arg.scalar = static_cast<uint64_t>(type.max);
            break;
          case 2:
            arg.scalar = static_cast<uint64_t>(type.max) + 1;
            break;
          default:
            arg.scalar = rng.next();
            break;
        }
    }
}

void
mutateBuffer(Arg &arg, Rng &rng)
{
    const auto &type = *arg.type;
    const double roll = rng.uniform();
    if (roll < 0.4 || arg.bytes.empty()) {
        // Resize within (and slightly beyond) the declared range.
        const uint32_t limit = type.buf_max + type.buf_max / 2 + 1;
        arg.bytes.resize(rng.below(limit + 1), 0);
    } else if (roll < 0.8) {
        // Rewrite a random byte.
        arg.bytes[rng.below(arg.bytes.size())] =
            static_cast<uint8_t>(rng.below(256));
    } else {
        // Rewrite the whole payload from a small alphabet.
        for (auto &b : arg.bytes)
            b = static_cast<uint8_t>(rng.chance(0.5) ? 0x61 : rng.below(256));
    }
}

void
mutateResource(Arg &arg, const prog::Prog &prog, size_t call_index,
               Rng &rng)
{
    std::vector<int32_t> producers;
    for (size_t j = 0; j < call_index; ++j) {
        if (prog.calls[j].decl->ret_resource ==
            arg.type->resource_kind) {
            producers.push_back(static_cast<int32_t>(j));
        }
    }
    if (!producers.empty() && rng.chance(0.8))
        arg.result_ref = producers[rng.below(producers.size())];
    else
        arg.result_ref = -1;
}

}  // namespace

void
MutationUndo::restore(prog::Prog &prog)
{
    const auto offset = static_cast<ptrdiff_t>(position);
    switch (op) {
      case Op::None:
        return;
      case Op::Argument:
        for (auto it = lengths.rbegin(); it != lengths.rend(); ++it)
            it->arg->scalar = it->old_value;
        lengths.clear();
        target->scalar = scalar;
        target->is_null = is_null;
        target->result_ref = result_ref;
        if (target->type->kind == TypeKind::Buffer)
            target->bytes.swap(bytes);
        else if (target->type->kind == TypeKind::Ptr)
            target->pointee = std::move(pointee);
        target = nullptr;
        break;
      case Op::Insertion:
        prog.calls.erase(prog.calls.begin() + offset);
        prog::shiftResultRefs(prog, position, -1);
        break;
      case Op::Removal:
        prog::shiftResultRefs(prog, position, +1);
        prog.calls.insert(prog.calls.begin() + offset, std::move(removed));
        for (Arg *arg : orphaned)
            arg->result_ref = static_cast<int32_t>(position);
        orphaned.clear();
        removed = prog::Call();
        break;
    }
    op = Op::None;
}

Mutator::Mutator(const prog::SyscallTable &table, MutatorOptions opts)
    : table_(table), opts_(std::move(opts))
{
}

MutationType
Mutator::selectType(Rng &rng, const prog::Prog &prog) const
{
    std::vector<double> weights = {opts_.arg_mutation_weight,
                                   opts_.insert_weight,
                                   opts_.remove_weight};
    if (prog.calls.size() >= opts_.max_calls)
        weights[1] = 0.0;
    if (prog.calls.size() <= 1)
        weights[2] = 0.0;
    if (!hasArgLocation(prog))
        weights[0] = 0.0;
    switch (rng.weightedIndex(weights)) {
      case 0:
        return MutationType::ArgumentMutation;
      case 1:
        return MutationType::CallInsertion;
      default:
        return MutationType::CallRemoval;
    }
}

bool
Mutator::instantiateArgMutation(prog::Prog &prog, const ArgLocation &loc,
                                Rng &rng, MutationUndo *undo) const
{
    SP_ASSERT(undo == nullptr || undo->empty(),
              "instantiating over an unrestored undo record");
    if (loc.call_index >= prog.calls.size())
        return false;
    prog::Call &call = prog.calls[loc.call_index];

    // Re-resolve the path defensively: other mutations (e.g. a pointer
    // nulled out) may have removed the node.
    const Arg *probe = nullptr;
    {
        const Arg *node = loc.point.path[0] < call.args.size()
                              ? call.args[loc.point.path[0]].get()
                              : nullptr;
        for (size_t i = 1; node != nullptr && i < loc.point.path.size();
             ++i) {
            if (node->type->kind == TypeKind::Ptr) {
                node = node->is_null ? nullptr : node->pointee.get();
            } else if (node->type->kind == TypeKind::Struct) {
                node = loc.point.path[i] < node->fields.size()
                           ? node->fields[loc.point.path[i]].get()
                           : nullptr;
            } else {
                node = nullptr;
            }
        }
        probe = node;
    }
    if (probe == nullptr)
        return false;
    Arg &arg = prog::argAtPath(call, loc.point.path);
    const TypeKind kind = arg.type->kind;
    if (kind == TypeKind::Const || kind == TypeKind::Len ||
        kind == TypeKind::Struct) {
        return false;  // not directly mutable
    }
    if (undo != nullptr) {
        undo->op = MutationUndo::Op::Argument;
        undo->target = &arg;
        undo->scalar = arg.scalar;
        undo->is_null = arg.is_null;
        undo->result_ref = arg.result_ref;
        if (kind == TypeKind::Buffer)
            undo->bytes.assign(arg.bytes.begin(), arg.bytes.end());
        else if (kind == TypeKind::Ptr)
            undo->pointee = std::move(arg.pointee);
    }

    switch (kind) {
      case TypeKind::Int:
      case TypeKind::Flags:
        mutateScalar(arg, rng);
        break;
      case TypeKind::Resource:
        mutateResource(arg, prog, loc.call_index, rng);
        break;
      case TypeKind::Ptr:
        if (arg.is_null) {
            arg.is_null = false;
            arg.pointee = prog::generateArg(rng, arg.type->elem,
                                            opts_.gen);
        } else if (arg.type->opt && rng.chance(0.3)) {
            arg.is_null = true;
            arg.pointee.reset();
        } else {
            // Regenerate the pointee wholesale (a large-step mutation).
            arg.pointee = prog::generateArg(rng, arg.type->elem,
                                            opts_.gen);
        }
        break;
      case TypeKind::Buffer:
        mutateBuffer(arg, rng);
        break;
      case TypeKind::Const:
      case TypeKind::Len:
      case TypeKind::Struct:
        break;  // rejected above
    }
    prog::fixupLengths(call, undo != nullptr ? &undo->lengths : nullptr);
    return true;
}

void
Mutator::insertCall(prog::Prog &prog, Rng &rng, MutationUndo *undo) const
{
    SP_ASSERT(undo == nullptr || undo->empty(),
              "inserting over an unrestored undo record");
    if (prog.calls.size() >= opts_.max_calls)
        return;
    // Prefer decls whose consumed resources are producible in-program.
    std::vector<double> weights(table_.decls.size(), 1.0);
    for (size_t d = 0; d < table_.decls.size(); ++d) {
        for (const auto &kind :
             table_.decls[d].consumedResourceKinds()) {
            bool have = false;
            for (const auto &call : prog.calls)
                have |= (call.decl->ret_resource == kind);
            if (!have)
                weights[d] = 0.2;
        }
    }
    const auto &decl = table_.decls[rng.weightedIndex(weights)];

    prog::Call call;
    call.decl = &decl;
    for (const auto &t : decl.args)
        call.args.push_back(prog::generateArg(rng, t, opts_.gen));

    const size_t position = rng.below(prog.calls.size() + 1);
    prog::shiftResultRefs(prog, position, +1);
    prog.calls.insert(prog.calls.begin() +
                          static_cast<ptrdiff_t>(position),
                      std::move(call));

    // Bind the new call's resources to earlier producers.
    prog::Call &inserted = prog.calls[position];
    prog::visitArgsMut(
        inserted, [&](Arg &arg, const std::vector<uint16_t> &) {
            if (arg.type->kind != TypeKind::Resource)
                return;
            mutateResource(arg, prog, position, rng);
        });
    prog::fixupLengths(inserted);
    if (undo != nullptr) {
        undo->op = MutationUndo::Op::Insertion;
        undo->position = position;
    }
}

void
Mutator::removeCall(prog::Prog &prog, Rng &rng, MutationUndo *undo) const
{
    SP_ASSERT(undo == nullptr || undo->empty(),
              "removing over an unrestored undo record");
    if (prog.calls.size() <= 1)
        return;
    const size_t position = rng.below(prog.calls.size());
    const auto at = prog.calls.begin() + static_cast<ptrdiff_t>(position);
    if (undo != nullptr) {
        undo->op = MutationUndo::Op::Removal;
        undo->position = position;
        undo->removed = std::move(*at);
    }
    prog.calls.erase(at);
    // shiftResultRefs only rewrites reference values, so running it
    // after the erase is equivalent: refs to `position` become invalid
    // handles, later refs shift down by one.
    prog::shiftResultRefs(prog, position, -1,
                          undo != nullptr ? &undo->orphaned : nullptr);
}

prog::Prog
Mutator::mutate(const prog::Prog &base, Rng &rng,
                Localizer &localizer) const
{
    prog::Prog mutated;
    mutated.calls = base.calls;  // deep copy

    switch (selectType(rng, mutated)) {
      case MutationType::ArgumentMutation: {
        auto sites = localizer.localize(mutated, rng, 1);
        bool applied = false;
        for (const auto &site : sites)
            applied |= instantiateArgMutation(mutated, site, rng);
        if (!applied)
            insertCall(mutated, rng);
        break;
      }
      case MutationType::CallInsertion:
        insertCall(mutated, rng);
        break;
      case MutationType::CallRemoval:
        removeCall(mutated, rng);
        break;
    }
    return mutated;
}

}  // namespace sp::mut
