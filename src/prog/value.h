/**
 * @file
 * Concrete test programs: argument value trees, calls and programs.
 *
 * An Arg instantiates a Type with actual values; a Call pairs a
 * SyscallDecl with its argument values; a Prog is an ordered call list.
 * Resource arguments refer to the *producing call's index* inside the
 * same program (like Syzkaller's r0/r1 variables), or carry no reference
 * to model an invalid handle.
 */
#ifndef SP_PROG_VALUE_H
#define SP_PROG_VALUE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "prog/types.h"

namespace sp::prog {

struct Arg;
using ArgPtr = std::unique_ptr<Arg>;

/** One argument value node, mirroring its Type's shape. */
struct Arg
{
    TypeRef type;

    /** Int/Flags/Const/Len: the numeric value. */
    uint64_t scalar = 0;

    /** @name Ptr */
    /** @{ */
    bool is_null = false;
    ArgPtr pointee;  ///< set iff !is_null
    /** @} */

    /** Struct: field values (same arity/order as type->fields). */
    std::vector<ArgPtr> fields;

    /** Buffer: payload bytes. */
    std::vector<uint8_t> bytes;

    /**
     * Resource: index of the producing call within the program, or -1
     * for an intentionally-invalid handle.
     */
    int32_t result_ref = -1;

    /** Deep copy. */
    ArgPtr clone() const;

    /** Structural equality (type identity by pointer, values deep). */
    bool equals(const Arg &other) const;
};

/** One system-call invocation. */
struct Call
{
    const SyscallDecl *decl = nullptr;
    std::vector<ArgPtr> args;

    Call() = default;
    Call(const Call &other);
    Call &operator=(const Call &other);
    Call(Call &&) = default;
    Call &operator=(Call &&) = default;
};

/** An ordered sequence of calls — one kernel test. */
struct Prog
{
    std::vector<Call> calls;

    /** Structural equality. */
    bool equals(const Prog &other) const;

    /** Stable content hash (used for corpus dedup). */
    uint64_t hash() const;

    /** Number of calls. */
    size_t size() const { return calls.size(); }
};

/** Construct the default value for a type (zeroed ints, min-size bufs). */
ArgPtr defaultArg(const TypeRef &type);

/** Construct default values for every argument of a decl. */
std::vector<ArgPtr> defaultArgs(const SyscallDecl &decl);

/** One length-field write: the Len node and the value it held. */
struct LengthWrite
{
    Arg *arg = nullptr;
    uint64_t old_value = 0;
};

/**
 * Recompute every Len field in a call from its sibling buffer's current
 * size. Call after any mutation that can change buffer lengths. When
 * `log` is non-null, every write that changes a value is appended to
 * it, so replaying the log backwards restores the old lengths exactly
 * (stale ones included).
 */
void fixupLengths(Call &call, std::vector<LengthWrite> *log = nullptr);

/**
 * Visit every Arg node of a call in flattening order (pre-order).
 * The visitor receives the node and its path (child indices from the
 * call root, where top-level argument index is the first element).
 */
void visitArgs(const Call &call,
               const std::function<void(const Arg &,
                                        const std::vector<uint16_t> &)> &fn);

/** Mutable variant of visitArgs. */
void visitArgsMut(Call &call,
                  const std::function<void(Arg &,
                                           const std::vector<uint16_t> &)> &fn);

/** Resolve a path (as produced by visitArgs) to the node; fatal if bad. */
Arg &argAtPath(Call &call, const std::vector<uint16_t> &path);
const Arg &argAtPath(const Call &call, const std::vector<uint16_t> &path);

/**
 * Rewrite result_ref indices after inserting (delta=+1) or removing
 * (delta=-1) the call at `position`. References to a removed call become
 * invalid handles (result_ref = -1); when `orphaned` is non-null, each
 * node so invalidated is appended to it, so an undo can point it back.
 */
void shiftResultRefs(Prog &prog, size_t position, int delta,
                     std::vector<Arg *> *orphaned = nullptr);

}  // namespace sp::prog

#endif  // SP_PROG_VALUE_H
