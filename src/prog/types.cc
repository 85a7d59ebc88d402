#include "prog/types.h"

#include <algorithm>

#include "util/logging.h"

namespace sp::prog {

namespace {

std::shared_ptr<Type>
makeType(TypeKind kind, std::string name)
{
    auto t = std::make_shared<Type>();
    t->kind = kind;
    t->name = std::move(name);
    return t;
}

void
collectConsumedKinds(const Type &type, std::vector<std::string> &out)
{
    switch (type.kind) {
      case TypeKind::Resource:
        if (std::find(out.begin(), out.end(), type.resource_kind) ==
            out.end()) {
            out.push_back(type.resource_kind);
        }
        break;
      case TypeKind::Ptr:
        collectConsumedKinds(*type.elem, out);
        break;
      case TypeKind::Struct:
        for (const auto &f : type.fields)
            collectConsumedKinds(*f, out);
        break;
      default:
        break;
    }
}

void
enumerateType(const TypeRef &type, std::vector<uint16_t> &path,
              uint32_t &next, std::vector<SlotDesc> &out)
{
    auto emit = [&](SlotRole role, bool is_mutable) {
        SlotDesc desc;
        desc.index = next++;
        desc.type = type;
        desc.role = role;
        desc.path = path;
        desc.is_mutable = is_mutable;
        out.push_back(std::move(desc));
    };

    switch (type->kind) {
      case TypeKind::Int:
      case TypeKind::Flags:
        emit(SlotRole::Value, true);
        break;
      case TypeKind::Const:
      case TypeKind::Len:
        // Fixed or auto-computed: visible to the kernel, not mutable.
        emit(SlotRole::Value, false);
        break;
      case TypeKind::Resource:
        emit(SlotRole::Value, true);
        break;
      case TypeKind::Ptr:
        emit(SlotRole::PtrNull, type->opt);
        path.push_back(0);
        enumerateType(type->elem, path, next, out);
        path.pop_back();
        break;
      case TypeKind::Struct:
        for (size_t i = 0; i < type->fields.size(); ++i) {
            path.push_back(static_cast<uint16_t>(i));
            enumerateType(type->fields[i], path, next, out);
            path.pop_back();
        }
        break;
      case TypeKind::Buffer:
        emit(SlotRole::BufLen, true);
        emit(SlotRole::BufClass, true);
        break;
    }
}

}  // namespace

TypeRef
intType(std::string name, uint32_t bits, int64_t min, int64_t max,
        std::vector<uint64_t> special)
{
    SP_ASSERT(min <= max);
    auto t = makeType(TypeKind::Int, std::move(name));
    t->bits = bits;
    t->min = min;
    t->max = max;
    t->domain = std::move(special);
    return t;
}

TypeRef
flagsType(std::string name, std::vector<uint64_t> values, bool combinable)
{
    SP_ASSERT(!values.empty(), "flags type needs at least one value");
    auto t = makeType(TypeKind::Flags, std::move(name));
    t->domain = std::move(values);
    t->combinable = combinable;
    return t;
}

TypeRef
constType(std::string name, uint64_t value)
{
    auto t = makeType(TypeKind::Const, std::move(name));
    t->const_value = value;
    return t;
}

TypeRef
lenType(std::string name, uint32_t target_index)
{
    auto t = makeType(TypeKind::Len, std::move(name));
    t->len_target = target_index;
    return t;
}

TypeRef
resourceType(std::string name, std::string kind)
{
    SP_ASSERT(!kind.empty());
    auto t = makeType(TypeKind::Resource, std::move(name));
    t->resource_kind = std::move(kind);
    return t;
}

TypeRef
ptrType(std::string name, TypeRef elem, bool out, bool opt)
{
    SP_ASSERT(elem != nullptr);
    auto t = makeType(TypeKind::Ptr, std::move(name));
    t->elem = std::move(elem);
    t->ptr_out = out;
    t->opt = opt;
    return t;
}

TypeRef
structType(std::string name, std::vector<TypeRef> fields)
{
    SP_ASSERT(!fields.empty(), "struct type needs fields");
    auto t = makeType(TypeKind::Struct, std::move(name));
    t->fields = std::move(fields);
    return t;
}

TypeRef
bufferType(std::string name, uint32_t min_len, uint32_t max_len)
{
    SP_ASSERT(min_len <= max_len);
    auto t = makeType(TypeKind::Buffer, std::move(name));
    t->buf_min = min_len;
    t->buf_max = max_len;
    return t;
}

void
SyscallDecl::finalize()
{
    slots_ = enumerateSlots(*this);
    point_slots_.clear();
    for (const auto &slot : slots_) {
        // A buffer contributes two slots; collapse onto one point.
        if (slot.is_mutable &&
            (point_slots_.empty() ||
             slots_[point_slots_.back()].path != slot.path)) {
            point_slots_.push_back(slot.index);
        }
    }
    consumed_kinds_.clear();
    for (const auto &arg : args)
        collectConsumedKinds(*arg, consumed_kinds_);
    finalized_ = true;
}

const std::vector<SlotDesc> &
SyscallDecl::slots() const
{
    SP_ASSERT(finalized_, "decl %s was never finalized", name.c_str());
    return slots_;
}

const std::vector<uint32_t> &
SyscallDecl::mutationPointSlots() const
{
    SP_ASSERT(finalized_, "decl %s was never finalized", name.c_str());
    return point_slots_;
}

const std::vector<std::string> &
SyscallDecl::consumedResourceKinds() const
{
    SP_ASSERT(finalized_, "decl %s was never finalized", name.c_str());
    return consumed_kinds_;
}

const SyscallDecl *
SyscallTable::find(const std::string &name) const
{
    for (const auto &decl : decls)
        if (decl.name == name)
            return &decl;
    return nullptr;
}

const SyscallDecl &
SyscallTable::byId(uint32_t id) const
{
    SP_ASSERT(id < decls.size(), "syscall id %u out of range", id);
    SP_ASSERT(decls[id].id == id, "syscall table ids must be dense");
    return decls[id];
}

std::vector<std::string>
SyscallTable::producibleResourceKinds() const
{
    std::vector<std::string> kinds;
    for (const auto &decl : decls) {
        if (!decl.ret_resource.empty() &&
            std::find(kinds.begin(), kinds.end(), decl.ret_resource) ==
                kinds.end()) {
            kinds.push_back(decl.ret_resource);
        }
    }
    return kinds;
}

uint32_t
slotCount(const Type &type)
{
    switch (type.kind) {
      case TypeKind::Int:
      case TypeKind::Flags:
      case TypeKind::Const:
      case TypeKind::Len:
      case TypeKind::Resource:
        return 1;
      case TypeKind::Ptr:
        // Nullness slot plus the pointee's slots.
        return 1 + slotCount(*type.elem);
      case TypeKind::Struct: {
        uint32_t total = 0;
        for (const auto &f : type.fields)
            total += slotCount(*f);
        return total;
      }
      case TypeKind::Buffer:
        // Length slot plus a content-class slot.
        return 2;
    }
    SP_PANIC("unreachable type kind");
}

uint32_t
slotCount(const SyscallDecl &decl)
{
    uint32_t total = 0;
    for (const auto &arg : decl.args)
        total += slotCount(*arg);
    return total;
}

std::vector<SlotDesc>
enumerateSlots(const SyscallDecl &decl)
{
    std::vector<SlotDesc> out;
    std::vector<uint16_t> path;
    uint32_t next = 0;
    for (size_t i = 0; i < decl.args.size(); ++i) {
        path.push_back(static_cast<uint16_t>(i));
        enumerateType(decl.args[i], path, next, out);
        path.pop_back();
    }
    SP_ASSERT(next == slotCount(decl), "slot enumeration arity mismatch");
    return out;
}

}  // namespace sp::prog
