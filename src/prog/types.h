/**
 * @file
 * The Syzlang-like type system describing system-call interfaces.
 *
 * A SyscallDecl gives each system-call variant a name and a tree of
 * argument types. Types mirror the constructs Syzlang models: plain
 * integers with interesting-value domains, OR-combinable flag sets,
 * constants, length fields computed from sibling buffers, kernel
 * resources (file descriptors, sockets, ...) flowing between calls,
 * typed pointers (in/out), structs with nested fields, and raw byte
 * buffers. The mutation engine and the kernel's branch predicates both
 * key off the *flattened slot order* of these trees (see flatten.h).
 */
#ifndef SP_PROG_TYPES_H
#define SP_PROG_TYPES_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sp::prog {

/** Kind discriminator for Type. */
enum class TypeKind : uint8_t {
    Int,       ///< integer with a range and optional special values
    Flags,     ///< set of named bit flags, optionally OR-combinable
    Const,     ///< fixed value the test cannot change
    Len,       ///< auto-computed length of a sibling buffer
    Resource,  ///< kernel object id produced by an earlier call
    Ptr,       ///< typed pointer, possibly null, with a direction
    Struct,    ///< record of nested fields
    Buffer,    ///< raw byte array with a length range
};

struct Type;
/** Types are immutable and shared between decls, values and the kernel. */
using TypeRef = std::shared_ptr<const Type>;

/**
 * One node of an argument type tree. Only the fields relevant to `kind`
 * are meaningful; the factory functions below construct valid nodes.
 */
struct Type
{
    TypeKind kind = TypeKind::Int;
    std::string name;  ///< display name, e.g. "flags", "mode", "msghdr"

    /** @name Int / Flags */
    /** @{ */
    uint32_t bits = 64;             ///< value width
    int64_t min = 0;                ///< Int range lower bound
    int64_t max = 0;                ///< Int range upper bound
    std::vector<uint64_t> domain;   ///< interesting values / flag values
    bool combinable = false;        ///< Flags may be OR-combined
    /** @} */

    /** Const: the pinned value. */
    uint64_t const_value = 0;

    /**
     * Len: index (within the same struct, or same call for top-level
     * args) of the buffer field whose length this reports.
     */
    uint32_t len_target = 0;

    /** Resource: resource kind name, e.g. "fd", "sock", "scsi_fd". */
    std::string resource_kind;

    /** @name Ptr */
    /** @{ */
    TypeRef elem;          ///< pointee type
    bool ptr_out = false;  ///< direction: kernel writes through it
    bool opt = false;      ///< pointer may be null
    /** @} */

    /** Struct: field types in declaration order. */
    std::vector<TypeRef> fields;

    /** @name Buffer */
    /** @{ */
    uint32_t buf_min = 0;
    uint32_t buf_max = 64;
    /** @} */
};

/** @name Type factories */
/** @{ */
TypeRef intType(std::string name, uint32_t bits, int64_t min, int64_t max,
                std::vector<uint64_t> special = {});
TypeRef flagsType(std::string name, std::vector<uint64_t> values,
                  bool combinable);
TypeRef constType(std::string name, uint64_t value);
TypeRef lenType(std::string name, uint32_t target_index);
TypeRef resourceType(std::string name, std::string kind);
TypeRef ptrType(std::string name, TypeRef elem, bool out = false,
                bool opt = true);
TypeRef structType(std::string name, std::vector<TypeRef> fields);
TypeRef bufferType(std::string name, uint32_t min_len, uint32_t max_len);
/** @} */

/** What a flattened slot represents. */
enum class SlotRole : uint8_t {
    Value,     ///< scalar value of an Int/Flags/Const/Len/Resource leaf
    PtrNull,   ///< pointer nullness (1 = non-null)
    BufLen,    ///< buffer length
    BufClass,  ///< buffer content class (hash bucket)
};

/** Static description of one slot of a decl (see flatten.h). */
struct SlotDesc
{
    uint32_t index = 0;            ///< slot position within the call
    TypeRef type;                  ///< owning leaf type
    SlotRole role = SlotRole::Value;
    std::vector<uint16_t> path;    ///< Arg path of the owning node
    bool is_mutable = false;       ///< a mutation can change this slot

    bool operator==(const SlotDesc &) const = default;
};

/** Declaration of one system-call variant. */
struct SyscallDecl
{
    std::string name;            ///< e.g. "ioctl$scsi"
    uint32_t id = 0;             ///< dense index in the syscall table
    std::vector<TypeRef> args;   ///< top-level argument types
    std::string ret_resource;    ///< produced resource kind ("" if none)

    /**
     * Derive the decl's static layout from `args`: its slot layout and
     * the resource kinds it consumes. Whoever builds a table calls this
     * after the decl's last edit (KernelBuilder::beginHandler does).
     * The layout lives in the decl rather than in a cache keyed by its
     * address, so it travels with copies.
     */
    void finalize();

    /** The slot layout, enumerateSlots(*this) as of finalize(). */
    const std::vector<SlotDesc> &slots() const;

    /** Resource kinds any argument subtree consumes, as of finalize(). */
    const std::vector<std::string> &consumedResourceKinds() const;

  private:
    std::vector<SlotDesc> slots_;
    std::vector<std::string> consumed_kinds_;
    bool finalized_ = false;
};

/** A complete user-space API surface (the fuzzer's "syscall table"). */
struct SyscallTable
{
    std::vector<SyscallDecl> decls;

    /** Find a decl by name; nullptr when absent. */
    const SyscallDecl *find(const std::string &name) const;

    /** Decl by dense id (fatal on out-of-range). */
    const SyscallDecl &byId(uint32_t id) const;

    /** Kinds of resources any call can produce. */
    std::vector<std::string> producibleResourceKinds() const;
};

/**
 * Number of flattened value slots an argument of this type occupies
 * (see flatten.h for the slot discipline).
 */
uint32_t slotCount(const Type &type);

/** Total flattened slot count across a decl's arguments. */
uint32_t slotCount(const SyscallDecl &decl);

/**
 * Static slot layout of a syscall declaration, in flattening order.
 * Walks the type tree on every call; SyscallDecl::slots() returns the
 * copy finalize() kept.
 */
std::vector<SlotDesc> enumerateSlots(const SyscallDecl &decl);

}  // namespace sp::prog

#endif  // SP_PROG_TYPES_H
