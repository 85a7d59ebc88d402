// Tests for the mutation engine: localizers, per-kind instantiation,
// structural mutations, and whole-pipeline invariants (mutants stay
// structurally valid).

#include <gtest/gtest.h>

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

TEST(Mutator, RestoringTheSiteCallUndoesAnInstantiation)
{
    // The campaign's argument lane mutates a scratch copy of the base
    // in place and undoes each mutant by moving back a saved copy of
    // the site's call. That is exact only if instantiation writes
    // nothing outside that call.
    Mutator mutator(testTable());
    Rng rng(43);
    size_t instantiated = 0;
    for (const auto &base : prog::generateCorpus(rng, testTable(), 64)) {
        prog::Prog scratch;
        scratch.calls = base.calls;
        for (const auto &loc : allArgLocations(base)) {
            prog::Call saved = scratch.calls[loc.call_index];
            if (mutator.instantiateArgMutation(scratch, loc, rng))
                ++instantiated;
            ASSERT_EQ(scratch.calls.size(), base.calls.size());
            for (size_t i = 0; i < base.calls.size(); ++i) {
                if (i == loc.call_index)
                    continue;
                prog::Prog got, want;
                got.calls.push_back(scratch.calls[i]);
                want.calls.push_back(base.calls[i]);
                EXPECT_TRUE(got.equals(want))
                    << "call " << i << " changed by a mutation of call "
                    << loc.call_index;
            }
            scratch.calls[loc.call_index] = std::move(saved);
            ASSERT_TRUE(scratch.equals(base));
        }
    }
    EXPECT_GT(instantiated, 1000u);
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
