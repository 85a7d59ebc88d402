/**
 * @file
 * The mutation engine: type selection, localization and instantiation
 * (Figure 1 of the paper, function mutate_test).
 *
 * Type selection flips a biased coin among ARGUMENT_MUTATION /
 * CALL_INSERTION / CALL_REMOVAL, exactly like Syzkaller's fixed
 * probabilities. Localization is delegated to a pluggable Localizer.
 * Instantiation applies a per-type-kind value mutation strategy
 * (interesting values, bit flips, boundary excursions, resource
 * rewiring, buffer edits) and re-fixes computed length fields.
 */
#ifndef SP_MUTATE_MUTATOR_H
#define SP_MUTATE_MUTATOR_H

#include "mutate/localizer.h"
#include "prog/gen.h"
#include "prog/value.h"
#include "util/rng.h"

namespace sp::mut {

/** The mutation types the selector chooses among. */
enum class MutationType : uint8_t {
    ArgumentMutation,
    CallInsertion,
    CallRemoval,
};

/** Selector probabilities and instantiation knobs. */
struct MutatorOptions
{
    double arg_mutation_weight = 0.60;
    double insert_weight = 0.25;
    double remove_weight = 0.15;
    /** Maximum program length; insertions beyond this are skipped. */
    size_t max_calls = 16;
    prog::GenOptions gen;  ///< used when synthesizing inserted calls
};

/**
 * What one mutation overwrote, so the caller can put the base program
 * back without copying it. One per worker; restore(prog) returns
 * `prog` to its state before the mutation and empties the record.
 *
 *  - Argument instantiation: the target node's value fields, its old
 *    pointee (moved out, not cloned), and every length write the
 *    re-fixup made. Logging writes instead of recomputing lengths
 *    keeps the restore exact even for a base whose lengths were stale.
 *  - Call insertion: the position. Restore erases the call and shifts
 *    the later references back down.
 *  - Call removal: the call (moved out) and the references the removal
 *    invalidated. Restore shifts the later references back up, moves
 *    the call back in and points the invalidated references at it.
 */
struct MutationUndo
{
    enum class Op : uint8_t { None, Argument, Insertion, Removal };

    Op op = Op::None;

    /** @name Argument instantiation */
    /** @{ */
    prog::Arg *target = nullptr;  ///< null = no argument recorded
    uint64_t scalar = 0;
    bool is_null = false;
    int32_t result_ref = -1;
    std::vector<uint8_t> bytes;  ///< saved for Buffer targets only
    prog::ArgPtr pointee;        ///< moved out of Ptr targets only
    std::vector<prog::LengthWrite> lengths;
    /** @} */

    /** @name Call insertion / removal */
    /** @{ */
    size_t position = 0;
    prog::Call removed;                ///< the removed call, moved out
    std::vector<prog::Arg *> orphaned;  ///< refs the removal set to -1
    /** @} */

    bool empty() const { return op == Op::None; }

    /** Undo the recorded mutation of `prog`; a no-op when empty. */
    void restore(prog::Prog &prog);
};

/** Mutation engine bound to one syscall table. */
class Mutator
{
  public:
    Mutator(const prog::SyscallTable &table, MutatorOptions opts = {});

    /** Type selection (target-agnostic, like Syzkaller's default). */
    MutationType selectType(Rng &rng, const prog::Prog &prog) const;

    /**
     * Instantiate an argument mutation at `loc` in place: pick new
     * values for the located argument and re-fix lengths. Returns false
     * when the location no longer exists in this program (stale after
     * other mutations). When `undo` is non-null (and empty), it records
     * everything the instantiation overwrote; undo->restore(prog) then
     * returns `prog` to its prior state exactly.
     */
    bool instantiateArgMutation(prog::Prog &prog, const ArgLocation &loc,
                                Rng &rng,
                                MutationUndo *undo = nullptr) const;

    /** Insert a freshly generated call at a random position; `undo`
     *  as for instantiateArgMutation. */
    void insertCall(prog::Prog &prog, Rng &rng,
                    MutationUndo *undo = nullptr) const;

    /** Remove a random call, invalidating references to it; `undo` as
     *  for instantiateArgMutation. */
    void removeCall(prog::Prog &prog, Rng &rng,
                    MutationUndo *undo = nullptr) const;

    /**
     * Full mutate_test pipeline: select a type, localize with
     * `localizer` (for argument mutations), instantiate, and return the
     * mutated copy of `base`.
     */
    prog::Prog mutate(const prog::Prog &base, Rng &rng,
                      Localizer &localizer) const;

    const MutatorOptions &options() const { return opts_; }

  private:
    const prog::SyscallTable &table_;
    MutatorOptions opts_;
};

}  // namespace sp::mut

#endif  // SP_MUTATE_MUTATOR_H
