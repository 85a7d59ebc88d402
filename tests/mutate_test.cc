// Tests for the mutation engine: localizers, per-kind instantiation,
// structural mutations, and whole-pipeline invariants (mutants stay
// structurally valid).

#include <gtest/gtest.h>

#include <array>
#include <utility>

#include "kernel/subsystems.h"
#include "mutate/mutator.h"
#include "prog/serialize.h"
#include "prog/validate.h"

namespace sp::mut {
namespace {

const prog::SyscallTable &
testTable()
{
    static kern::Kernel kernel = [] {
        kern::KernelGenParams params;
        params.seed = 3;
        return kern::buildBaseKernel(params);
    }();
    return kernel.table();
}

prog::Prog
sampleProg(uint64_t seed)
{
    Rng rng(seed);
    return prog::generateProg(rng, testTable());
}

TEST(Localizer, AllArgLocationsCoversEveryCall)
{
    auto prog = sampleProg(1);
    auto locations = allArgLocations(prog);
    EXPECT_FALSE(locations.empty());
    size_t from_calls = 0;
    for (const auto &call : prog.calls)
        from_calls += prog::mutationPoints(call).size();
    EXPECT_EQ(locations.size(), from_calls);
    for (const auto &loc : locations)
        EXPECT_LT(loc.call_index, prog.calls.size());
}

TEST(Localizer, HasArgLocationMatchesAllArgLocations)
{
    Rng rng(41);
    for (const auto &program :
         prog::generateCorpus(rng, testTable(), 64)) {
        EXPECT_EQ(hasArgLocation(program),
                  !allArgLocations(program).empty());
    }

    // A call whose only mutable slot sits under a null, non-optional
    // pointer has no location until the pointer is filled in.
    prog::SyscallDecl decl;
    decl.name = "fixed$t";
    decl.args.push_back(prog::constType("magic", 7));
    decl.args.push_back(prog::ptrType(
        "req", prog::intType("v", 32, 0, 9), false, /*opt=*/false));
    decl.finalize();
    prog::Prog program;
    prog::Call call;
    call.decl = &decl;
    call.args = prog::defaultArgs(decl);
    call.args[1]->is_null = true;
    call.args[1]->pointee.reset();
    program.calls.push_back(std::move(call));
    EXPECT_FALSE(hasArgLocation(program));
    EXPECT_TRUE(allArgLocations(program).empty());

    program.calls[0].args[1]->is_null = false;
    program.calls[0].args[1]->pointee =
        prog::defaultArg(decl.args[1]->elem);
    EXPECT_TRUE(hasArgLocation(program));
    EXPECT_EQ(allArgLocations(program).size(), 1u);

    EXPECT_FALSE(hasArgLocation(prog::Prog{}));
}

/** The sampler RandomLocalizer ran before it learned to build only
 *  the chosen sites: the same draws over allArgLocations(prog). */
std::vector<ArgLocation>
referenceLocalize(const prog::Prog &prog, Rng &rng, size_t max_sites)
{
    auto all = allArgLocations(prog);
    if (all.empty())
        return {};

    std::vector<ArgLocation> chosen;
    // 0.5 is RandomLocalizer's default arity bias.
    if (rng.chance(0.5) && prog.calls.size() > 1) {
        size_t best_call = 0, best_arity = 0;
        std::vector<size_t> per_call(prog.calls.size(), 0);
        for (const auto &loc : all)
            ++per_call[loc.call_index];
        for (size_t i = 0; i < per_call.size(); ++i) {
            if (per_call[i] > best_arity) {
                best_arity = per_call[i];
                best_call = i;
            }
        }
        std::vector<size_t> pool;
        for (size_t i = 0; i < all.size(); ++i)
            if (all[i].call_index == best_call)
                pool.push_back(i);
        const size_t take = std::min(max_sites, pool.size());
        for (size_t pi : rng.sampleIndices(pool.size(), take))
            chosen.push_back(all[pool[pi]]);
    } else {
        const size_t take = std::min(max_sites, all.size());
        for (size_t i : rng.sampleIndices(all.size(), take))
            chosen.push_back(all[i]);
    }
    return chosen;
}

bool
samePoint(const prog::MutationPoint &a, const prog::MutationPoint &b)
{
    return a.path == b.path && a.type.get() == b.type.get() &&
           a.first_slot == b.first_slot;
}

TEST(Localizer, RandomLocalizerMatchesTheAllLocationsSampler)
{
    // Half the programs are generated with many null optional
    // pointers, whose pointee points must be skipped by both.
    prog::GenOptions nully;
    nully.null_ptr_prob = 0.5;
    size_t programs_with_nulls = 0, sites = 0;
    for (uint64_t p = 0; p < 200; ++p) {
        Rng gen(7000 + p);
        const prog::Prog program = prog::generateProg(
            gen, testTable(), p % 2 == 0 ? prog::GenOptions{} : nully);

        bool has_null = false;
        for (const auto &call : program.calls) {
            const auto points = prog::mutationPoints(call);
            ASSERT_EQ(prog::countMutationPoints(call), points.size());
            for (size_t k = 0; k < points.size(); ++k)
                ASSERT_TRUE(samePoint(prog::mutationPointAt(call, k),
                                      points[k]));
            prog::visitArgs(call, [&](const prog::Arg &arg,
                                      const std::vector<uint16_t> &) {
                has_null |= arg.type->kind == prog::TypeKind::Ptr &&
                            arg.is_null;
            });
        }
        programs_with_nulls += has_null;

        for (uint64_t seed = 0; seed < 5; ++seed) {
            const size_t cap = std::array<size_t, 5>{1, 2, 3, 6, 100}[seed];
            Rng a(p * 31 + seed), b(p * 31 + seed);
            RandomLocalizer localizer;
            const auto got = localizer.localize(program, a, cap);
            const auto want = referenceLocalize(program, b, cap);
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].call_index, want[i].call_index);
                EXPECT_TRUE(samePoint(got[i].point, want[i].point));
            }
            EXPECT_EQ(a.next(), b.next());
            sites += got.size();
        }
    }
    EXPECT_GT(programs_with_nulls, 20u);
    EXPECT_GT(sites, 1000u);
}

TEST(Localizer, RandomLocalizerRespectsCap)
{
    auto prog = sampleProg(2);
    RandomLocalizer localizer;
    Rng rng(5);
    for (size_t cap : {1u, 3u, 100u}) {
        auto sites = localizer.localize(prog, rng, cap);
        EXPECT_LE(sites.size(), cap);
        EXPECT_GE(sites.size(), 1u);
        // Sites must be distinct.
        for (size_t i = 0; i < sites.size(); ++i)
            for (size_t j = i + 1; j < sites.size(); ++j)
                EXPECT_FALSE(sites[i].call_index == sites[j].call_index &&
                             sites[i].point.path == sites[j].point.path);
    }
}

TEST(Mutator, SelectTypeRespectsConstraints)
{
    Mutator mutator(testTable());
    Rng rng(7);

    // Single-call program: removal must never be selected.
    prog::Prog single;
    single.calls.push_back(sampleProg(3).calls[0]);
    for (int i = 0; i < 200; ++i)
        EXPECT_NE(mutator.selectType(rng, single),
                  MutationType::CallRemoval);

    // Program at the call cap: insertion must never be selected.
    MutatorOptions opts;
    opts.max_calls = 2;
    Mutator capped(testTable(), opts);
    prog::Prog two = sampleProg(4);
    two.calls.resize(2);
    for (int i = 0; i < 200; ++i)
        EXPECT_NE(capped.selectType(rng, two),
                  MutationType::CallInsertion);
}

TEST(Mutator, ArgMutationChangesTheProgram)
{
    Mutator mutator(testTable());
    RandomLocalizer localizer;
    Rng rng(11);
    size_t changed = 0, attempts = 0;
    for (int i = 0; i < 100; ++i) {
        auto base = sampleProg(100 + i);
        auto sites = localizer.localize(base, rng, 1);
        if (sites.empty())
            continue;
        prog::Prog mutant;
        mutant.calls = base.calls;
        if (!mutator.instantiateArgMutation(mutant, sites[0], rng))
            continue;
        ++attempts;
        changed += !mutant.equals(base);
    }
    ASSERT_GT(attempts, 50u);
    // Mutation may occasionally pick the same value; mostly it changes.
    EXPECT_GT(static_cast<double>(changed) /
                  static_cast<double>(attempts),
              0.7);
}

TEST(Mutator, MutantsStayStructurallyValid)
{
    Mutator mutator(testTable());
    RandomLocalizer localizer;
    Rng rng(13);
    for (int i = 0; i < 300; ++i) {
        auto base = sampleProg(500 + i);
        auto mutant = mutator.mutate(base, rng, localizer);
        auto error = prog::validateProg(mutant);
        EXPECT_FALSE(error.has_value())
            << *error << "\n"
            << prog::formatProg(mutant);
    }
}

TEST(Mutator, InsertCallGrowsAndRewires)
{
    Mutator mutator(testTable());
    Rng rng(17);
    auto base = sampleProg(42);
    const size_t before = base.calls.size();
    mutator.insertCall(base, rng);
    EXPECT_EQ(base.calls.size(), before + 1);
    EXPECT_FALSE(prog::validateProg(base).has_value());
}

TEST(Mutator, RemoveCallShrinksAndStaysValid)
{
    Mutator mutator(testTable());
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        auto base = sampleProg(900 + i);
        if (base.calls.size() < 2)
            continue;
        const size_t before = base.calls.size();
        mutator.removeCall(base, rng);
        EXPECT_EQ(base.calls.size(), before - 1);
        auto error = prog::validateProg(base);
        EXPECT_FALSE(error.has_value()) << *error;
    }
}

TEST(Mutator, StaleLocationIsRejected)
{
    Mutator mutator(testTable());
    Rng rng(23);
    auto base = sampleProg(77);
    ArgLocation bogus;
    bogus.call_index = base.calls.size() + 5;
    EXPECT_FALSE(mutator.instantiateArgMutation(base, bogus, rng));
}

TEST(Mutator, UndoRecordRestoresAnInstantiation)
{
    // The campaign's argument lane mutates a scratch copy of the base
    // in place and undoes each mutant by replaying the instantiation's
    // MutationUndo record. The restore must be exact for every write an
    // instantiation makes: nested struct fields, regenerated and
    // nulled pointees, buffer resizes with their length writes, and
    // length fields that were stale before the mutation.
    Mutator mutator(testTable());
    Rng rng(43);
    MutationUndo undo;
    size_t instantiated = 0, nested = 0, ptr_nulled = 0,
           ptr_regenerated = 0, resized_with_lengths = 0,
           stale_restored = 0;
    const auto corpus = prog::generateCorpus(rng, testTable(), 64);
    for (size_t b = 0; b < corpus.size(); ++b) {
        prog::Prog base;
        base.calls = corpus[b].calls;
        // Every other base carries stale lengths (each Len off by
        // three), as a parsed or fleet-injected program may.
        bool stale = false;
        if (b % 2 == 1) {
            for (auto &call : base.calls) {
                prog::visitArgsMut(
                    call, [&](prog::Arg &arg, const std::vector<uint16_t> &) {
                        if (arg.type->kind == prog::TypeKind::Len) {
                            arg.scalar += 3;
                            stale = true;
                        }
                    });
            }
        }
        const std::string text = prog::formatProg(base);
        prog::Prog scratch;
        scratch.calls = base.calls;
        for (const auto &loc : allArgLocations(base)) {
            const prog::Arg &before = prog::argAtPath(
                std::as_const(base.calls[loc.call_index]), loc.point.path);
            for (int rep = 0; rep < 4; ++rep) {
                if (!mutator.instantiateArgMutation(scratch, loc, rng,
                                                    &undo)) {
                    EXPECT_EQ(undo.target, nullptr);
                    continue;
                }
                ++instantiated;
                ASSERT_NE(undo.target, nullptr);
                const prog::Arg &after = *undo.target;
                nested += loc.point.path.size() >= 3;
                if (after.type->kind == prog::TypeKind::Ptr &&
                    !before.is_null) {
                    ++(after.is_null ? ptr_nulled : ptr_regenerated);
                }
                resized_with_lengths +=
                    after.type->kind == prog::TypeKind::Buffer &&
                    after.bytes.size() != before.bytes.size() &&
                    !undo.lengths.empty();
                stale_restored += stale && !undo.lengths.empty();

                undo.restore(scratch);
                EXPECT_EQ(undo.target, nullptr);
                EXPECT_TRUE(undo.lengths.empty());
                ASSERT_TRUE(scratch.equals(base));
                ASSERT_EQ(prog::formatProg(scratch), text);
            }
        }
    }
    EXPECT_GT(instantiated, 1000u);
    EXPECT_GT(nested, 0u);
    EXPECT_GT(ptr_nulled, 0u);
    EXPECT_GT(ptr_regenerated, 0u);
    EXPECT_GT(resized_with_lengths, 0u);
    EXPECT_GT(stale_restored, 0u);
}

TEST(Mutator, UndoRecordRestoresEveryOperator)
{
    // The campaign's structural lane mutates the round's scratch copy
    // in place too: insertions, removals and the random-site argument
    // fallback, each undone before the next mutant.
    Mutator mutator(testTable());
    RandomLocalizer fallback;
    Rng rng(47);
    MutationUndo undo;
    size_t inserted = 0, removed = 0, orphans = 0, fallbacks = 0;
    for (uint64_t p = 0; p < 500; ++p) {
        const prog::Prog base = sampleProg(9000 + p);
        const uint64_t hash = base.hash();
        prog::Prog scratch;
        scratch.calls = base.calls;
        for (int op = 0; op < 3; ++op) {
            switch (op) {
              case 0:
                mutator.insertCall(scratch, rng, &undo);
                inserted += scratch.calls.size() == base.calls.size() + 1;
                break;
              case 1:
                mutator.removeCall(scratch, rng, &undo);
                removed += scratch.calls.size() + 1 == base.calls.size();
                orphans += undo.orphaned.size();
                break;
              default: {
                const auto sites = fallback.localize(scratch, rng, 1);
                if (!sites.empty()) {
                    fallbacks += mutator.instantiateArgMutation(
                        scratch, sites[0], rng, &undo);
                }
                break;
              }
            }
            EXPECT_FALSE(prog::validateProg(scratch).has_value());
            undo.restore(scratch);
            EXPECT_TRUE(undo.empty());
            ASSERT_TRUE(scratch.equals(base)) << "operator " << op;
            ASSERT_EQ(scratch.hash(), hash);
        }
    }
    EXPECT_GT(inserted, 400u);
    EXPECT_GT(removed, 400u);
    EXPECT_GT(orphans, 0u);
    EXPECT_GT(fallbacks, 400u);
}

/** A two-decl table: `open` produces an fd; `use` consumes one at top
 *  level and one inside an optional pointer to a struct. */
const prog::SyscallTable &
resourceTable()
{
    static const prog::SyscallTable table = [] {
        prog::SyscallTable t;
        prog::SyscallDecl open;
        open.name = "open";
        open.id = 0;
        open.args.push_back(prog::intType("flags", 32, 0, 7));
        open.ret_resource = "fd";
        prog::SyscallDecl use;
        use.name = "use";
        use.id = 1;
        use.args.push_back(prog::resourceType("fd", "fd"));
        use.args.push_back(prog::ptrType(
            "req",
            prog::structType("req_t", {prog::resourceType("fd2", "fd"),
                                       prog::intType("v", 32, 0, 9)})));
        t.decls.push_back(std::move(open));
        t.decls.push_back(std::move(use));
        for (auto &decl : t.decls)
            decl.finalize();
        return t;
    }();
    return table;
}

/** open; open; use(r1, &{r0}); use(r0, &{r1}) */
prog::Prog
resourceProg()
{
    const auto &table = resourceTable();
    prog::Prog program;
    auto add = [&](uint32_t decl, int32_t top, int32_t nested) {
        prog::Call call;
        call.decl = &table.decls[decl];
        call.args = prog::defaultArgs(*call.decl);
        if (decl == 1) {
            call.args[0]->result_ref = top;
            call.args[1]->pointee->fields[0]->result_ref = nested;
        }
        program.calls.push_back(std::move(call));
    };
    add(0, -1, -1);
    add(0, -1, -1);
    add(1, 1, 0);
    add(1, 0, 1);
    return program;
}

TEST(Mutator, UndoRestoresARemovedProducersConsumers)
{
    // Removing call 0 orphans both refs to it (one top-level, one
    // nested behind a pointer) and shifts the refs to call 1 down;
    // the restore must point the orphans back and shift the rest up.
    Mutator mutator(resourceTable());
    const prog::Prog base = resourceProg();
    bool removed_first = false;
    for (uint64_t seed = 0; seed < 64 && !removed_first; ++seed) {
        Rng rng(seed);
        prog::Prog scratch;
        scratch.calls = base.calls;
        MutationUndo undo;
        mutator.removeCall(scratch, rng, &undo);
        ASSERT_EQ(undo.op, MutationUndo::Op::Removal);
        if (undo.position == 0) {
            removed_first = true;
            ASSERT_EQ(undo.orphaned.size(), 2u);
            EXPECT_EQ(scratch.calls[1].args[0]->result_ref, 0);
            EXPECT_EQ(scratch.calls[1].args[1]->pointee->fields[0]
                          ->result_ref,
                      -1);
            EXPECT_EQ(scratch.calls[2].args[0]->result_ref, -1);
            EXPECT_EQ(scratch.calls[2].args[1]->pointee->fields[0]
                          ->result_ref,
                      0);
        }
        undo.restore(scratch);
        ASSERT_TRUE(scratch.equals(base));
        ASSERT_EQ(prog::formatProg(scratch), prog::formatProg(base));
    }
    EXPECT_TRUE(removed_first);
}

TEST(Mutator, UndoRestoresAnInsertionAtTheFront)
{
    // Inserting at position 0 shifts every ref up by one; the restore
    // erases the call and shifts them back.
    Mutator mutator(resourceTable());
    const prog::Prog base = resourceProg();
    bool inserted_first = false;
    for (uint64_t seed = 0; seed < 64 && !inserted_first; ++seed) {
        Rng rng(seed);
        prog::Prog scratch;
        scratch.calls = base.calls;
        MutationUndo undo;
        mutator.insertCall(scratch, rng, &undo);
        ASSERT_EQ(undo.op, MutationUndo::Op::Insertion);
        ASSERT_EQ(scratch.calls.size(), base.calls.size() + 1);
        if (undo.position == 0) {
            inserted_first = true;
            EXPECT_EQ(scratch.calls[3].args[0]->result_ref, 2);
            EXPECT_EQ(scratch.calls[3].args[1]->pointee->fields[0]
                          ->result_ref,
                      1);
        }
        undo.restore(scratch);
        ASSERT_TRUE(scratch.equals(base));
        ASSERT_EQ(prog::formatProg(scratch), prog::formatProg(base));
    }
    EXPECT_TRUE(inserted_first);
}

TEST(Mutator, PtrMutationTogglesAndRegenerates)
{
    // Find a program with an optional pointer argument and hammer it.
    Mutator mutator(testTable());
    Rng rng(29);
    bool saw_null = false, saw_nonnull = false;
    for (int i = 0; i < 400 && !(saw_null && saw_nonnull); ++i) {
        auto base = sampleProg(2000 + i);
        auto locations = allArgLocations(base);
        for (auto &loc : locations) {
            if (loc.point.type->kind != prog::TypeKind::Ptr)
                continue;
            prog::Prog mutant;
            mutant.calls = base.calls;
            mutator.instantiateArgMutation(mutant, loc, rng);
            const prog::Arg &arg =
                prog::argAtPath(mutant.calls[loc.call_index],
                                loc.point.path);
            (arg.is_null ? saw_null : saw_nonnull) = true;
            EXPECT_EQ(arg.is_null, arg.pointee == nullptr);
        }
    }
    EXPECT_TRUE(saw_null);
    EXPECT_TRUE(saw_nonnull);
}

}  // namespace
}  // namespace sp::mut
