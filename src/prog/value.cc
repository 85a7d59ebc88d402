#include "prog/value.h"

#include "util/hash.h"
#include "util/logging.h"

namespace sp::prog {

ArgPtr
Arg::clone() const
{
    auto copy = std::make_unique<Arg>();
    copy->type = type;
    copy->scalar = scalar;
    copy->is_null = is_null;
    if (pointee)
        copy->pointee = pointee->clone();
    copy->fields.reserve(fields.size());
    for (const auto &f : fields)
        copy->fields.push_back(f->clone());
    copy->bytes = bytes;
    copy->result_ref = result_ref;
    return copy;
}

bool
Arg::equals(const Arg &other) const
{
    if (type.get() != other.type.get())
        return false;
    switch (type->kind) {
      case TypeKind::Int:
      case TypeKind::Flags:
      case TypeKind::Const:
      case TypeKind::Len:
        return scalar == other.scalar;
      case TypeKind::Resource:
        return result_ref == other.result_ref;
      case TypeKind::Ptr:
        if (is_null != other.is_null)
            return false;
        return is_null || pointee->equals(*other.pointee);
      case TypeKind::Struct:
        if (fields.size() != other.fields.size())
            return false;
        for (size_t i = 0; i < fields.size(); ++i)
            if (!fields[i]->equals(*other.fields[i]))
                return false;
        return true;
      case TypeKind::Buffer:
        return bytes == other.bytes;
    }
    SP_PANIC("unreachable type kind");
}

Call::Call(const Call &other)
    : decl(other.decl)
{
    args.reserve(other.args.size());
    for (const auto &a : other.args)
        args.push_back(a->clone());
}

Call &
Call::operator=(const Call &other)
{
    if (this != &other) {
        decl = other.decl;
        args.clear();
        args.reserve(other.args.size());
        for (const auto &a : other.args)
            args.push_back(a->clone());
    }
    return *this;
}

bool
Prog::equals(const Prog &other) const
{
    if (calls.size() != other.calls.size())
        return false;
    for (size_t i = 0; i < calls.size(); ++i) {
        if (calls[i].decl != other.calls[i].decl ||
            calls[i].args.size() != other.calls[i].args.size()) {
            return false;
        }
        for (size_t j = 0; j < calls[i].args.size(); ++j)
            if (!calls[i].args[j]->equals(*other.calls[i].args[j]))
                return false;
    }
    return true;
}

namespace {

uint64_t
hashArg(const Arg &arg, uint64_t h)
{
    h = hashCombine(h, static_cast<uint64_t>(arg.type->kind));
    switch (arg.type->kind) {
      case TypeKind::Int:
      case TypeKind::Flags:
      case TypeKind::Const:
      case TypeKind::Len:
        return hashCombine(h, arg.scalar);
      case TypeKind::Resource:
        return hashCombine(h, static_cast<uint64_t>(arg.result_ref) + 1);
      case TypeKind::Ptr:
        if (arg.is_null)
            return hashCombine(h, 0xdeadULL);
        return hashArg(*arg.pointee, hashCombine(h, 0xbeefULL));
      case TypeKind::Struct:
        for (const auto &f : arg.fields)
            h = hashArg(*f, h);
        return h;
      case TypeKind::Buffer:
        return hashCombine(
            h, fnv1aBytes(arg.bytes.data(), arg.bytes.size()));
    }
    SP_PANIC("unreachable type kind");
}

}  // namespace

uint64_t
Prog::hash() const
{
    uint64_t h = 0x5eedULL;
    for (const auto &call : calls) {
        h = hashCombine(h, fnv1a(call.decl->name));
        for (const auto &arg : call.args)
            h = hashArg(*arg, h);
    }
    return h;
}

ArgPtr
defaultArg(const TypeRef &type)
{
    auto arg = std::make_unique<Arg>();
    arg->type = type;
    switch (type->kind) {
      case TypeKind::Int:
        arg->scalar = static_cast<uint64_t>(type->min);
        break;
      case TypeKind::Flags:
        arg->scalar = type->domain.front();
        break;
      case TypeKind::Const:
        arg->scalar = type->const_value;
        break;
      case TypeKind::Len:
        arg->scalar = 0;  // fixed up later
        break;
      case TypeKind::Resource:
        arg->result_ref = -1;
        break;
      case TypeKind::Ptr:
        arg->is_null = false;
        arg->pointee = defaultArg(type->elem);
        break;
      case TypeKind::Struct:
        for (const auto &f : type->fields)
            arg->fields.push_back(defaultArg(f));
        break;
      case TypeKind::Buffer:
        arg->bytes.assign(type->buf_min, 0);
        break;
    }
    return arg;
}

std::vector<ArgPtr>
defaultArgs(const SyscallDecl &decl)
{
    std::vector<ArgPtr> args;
    args.reserve(decl.args.size());
    for (const auto &t : decl.args)
        args.push_back(defaultArg(t));
    return args;
}

namespace {

// Fix Len fields among a sibling group (struct fields or top-level args).
void
fixupSiblingLens(std::vector<ArgPtr> &siblings,
                 std::vector<LengthWrite> *log)
{
    for (auto &arg : siblings) {
        if (arg->type->kind != TypeKind::Len)
            continue;
        const uint32_t target = arg->type->len_target;
        if (target >= siblings.size())
            continue;
        const Arg &sib = *siblings[target];
        uint64_t length = 0;
        if (sib.type->kind == TypeKind::Buffer) {
            length = sib.bytes.size();
        } else if (sib.type->kind == TypeKind::Ptr && !sib.is_null &&
                   sib.pointee->type->kind == TypeKind::Buffer) {
            length = sib.pointee->bytes.size();
        } else {
            continue;
        }
        if (arg->scalar == length)
            continue;
        if (log != nullptr)
            log->push_back({arg.get(), arg->scalar});
        arg->scalar = length;
    }
}

void
fixupLengthsRec(Arg &arg, std::vector<LengthWrite> *log)
{
    switch (arg.type->kind) {
      case TypeKind::Ptr:
        if (!arg.is_null)
            fixupLengthsRec(*arg.pointee, log);
        break;
      case TypeKind::Struct:
        for (auto &f : arg.fields)
            fixupLengthsRec(*f, log);
        fixupSiblingLens(arg.fields, log);
        break;
      default:
        break;
    }
}

}  // namespace

void
fixupLengths(Call &call, std::vector<LengthWrite> *log)
{
    for (auto &arg : call.args)
        fixupLengthsRec(*arg, log);
    fixupSiblingLens(call.args, log);
}

namespace {

template <typename ArgT, typename Fn>
void
visitRec(ArgT &arg, std::vector<uint16_t> &path, const Fn &fn)
{
    fn(arg, path);
    switch (arg.type->kind) {
      case TypeKind::Ptr:
        if (!arg.is_null) {
            path.push_back(0);
            visitRec(*arg.pointee, path, fn);
            path.pop_back();
        }
        break;
      case TypeKind::Struct:
        for (size_t i = 0; i < arg.fields.size(); ++i) {
            path.push_back(static_cast<uint16_t>(i));
            visitRec(*arg.fields[i], path, fn);
            path.pop_back();
        }
        break;
      default:
        break;
    }
}

}  // namespace

void
visitArgs(const Call &call,
          const std::function<void(const Arg &,
                                   const std::vector<uint16_t> &)> &fn)
{
    std::vector<uint16_t> path;
    for (size_t i = 0; i < call.args.size(); ++i) {
        path.push_back(static_cast<uint16_t>(i));
        visitRec<const Arg>(*call.args[i], path, fn);
        path.pop_back();
    }
}

void
visitArgsMut(Call &call,
             const std::function<void(Arg &,
                                      const std::vector<uint16_t> &)> &fn)
{
    std::vector<uint16_t> path;
    for (size_t i = 0; i < call.args.size(); ++i) {
        path.push_back(static_cast<uint16_t>(i));
        visitRec<Arg>(*call.args[i], path, fn);
        path.pop_back();
    }
}

namespace {

template <typename CallT, typename ArgT>
ArgT &
argAtPathImpl(CallT &call, const std::vector<uint16_t> &path)
{
    SP_ASSERT(!path.empty() && path[0] < call.args.size(),
              "bad argument path");
    ArgT *node = call.args[path[0]].get();
    for (size_t i = 1; i < path.size(); ++i) {
        const uint16_t step = path[i];
        if (node->type->kind == TypeKind::Ptr) {
            SP_ASSERT(step == 0 && !node->is_null, "bad path through ptr");
            node = node->pointee.get();
        } else if (node->type->kind == TypeKind::Struct) {
            SP_ASSERT(step < node->fields.size(),
                      "bad path through struct");
            node = node->fields[step].get();
        } else {
            SP_PANIC("path descends into a leaf argument");
        }
    }
    return *node;
}

}  // namespace

Arg &
argAtPath(Call &call, const std::vector<uint16_t> &path)
{
    return argAtPathImpl<Call, Arg>(call, path);
}

const Arg &
argAtPath(const Call &call, const std::vector<uint16_t> &path)
{
    return argAtPathImpl<const Call, const Arg>(call, path);
}

namespace {

void
shiftRefs(Arg &node, size_t position, int delta,
          std::vector<Arg *> *orphaned)
{
    switch (node.type->kind) {
      case TypeKind::Resource: {
        if (node.result_ref < 0)
            break;
        const auto ref = static_cast<size_t>(node.result_ref);
        if (delta == 1) {
            if (ref >= position)
                node.result_ref += 1;
        } else if (ref == position) {
            node.result_ref = -1;
            if (orphaned != nullptr)
                orphaned->push_back(&node);
        } else if (ref > position) {
            node.result_ref -= 1;
        }
        break;
      }
      case TypeKind::Ptr:
        if (!node.is_null)
            shiftRefs(*node.pointee, position, delta, orphaned);
        break;
      case TypeKind::Struct:
        for (auto &f : node.fields)
            shiftRefs(*f, position, delta, orphaned);
        break;
      default:
        break;
    }
}

}  // namespace

void
shiftResultRefs(Prog &prog, size_t position, int delta,
                std::vector<Arg *> *orphaned)
{
    SP_ASSERT(delta == 1 || delta == -1);
    for (auto &call : prog.calls)
        for (auto &arg : call.args)
            shiftRefs(*arg, position, delta, orphaned);
}

}  // namespace sp::prog
