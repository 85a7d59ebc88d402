// Parameterized property tests: invariants that must hold across many
// seeds/configurations, exercised with TEST_P sweeps.
//
//  - Program serialization round-trips for any generated program.
//  - Generated programs and arbitrarily-mutated programs stay valid.
//  - Generated kernels are well-formed for any seed: handlers
//    terminate, slot references are in range, bug sites are deep.
//  - Flattening arity is invariant under mutation.
//  - Deterministic execution is reproducible for any seed.
//  - Kernel evolution preserves the base syscall ABI for any seed.

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "graph/encode.h"
#include "graph/query_graph.h"
#include "kernel/kernel_gen.h"
#include "kernel/subsystems.h"
#include "mutate/mutator.h"
#include "prog/flatten.h"
#include "prog/gen.h"
#include "prog/serialize.h"
#include "prog/validate.h"

namespace sp {
namespace {

class SeedSweep : public ::testing::TestWithParam<uint64_t>
{
  protected:
    kern::Kernel
    makeKernel() const
    {
        kern::KernelGenParams params;
        params.seed = GetParam();
        params.num_syscalls = 12;
        return kern::generateKernel(params);
    }
};

TEST_P(SeedSweep, SerializationRoundTrips)
{
    auto kernel = makeKernel();
    Rng rng(GetParam() * 3 + 1);
    for (int i = 0; i < 25; ++i) {
        auto program = prog::generateProg(rng, kernel.table());
        auto parsed = parseProg(formatProg(program), kernel.table());
        ASSERT_TRUE(parsed.ok()) << parsed.error;
        EXPECT_TRUE(program.equals(*parsed.prog));
    }
}

TEST_P(SeedSweep, MutationPreservesValidity)
{
    auto kernel = makeKernel();
    mut::Mutator mutator(kernel.table());
    mut::RandomLocalizer localizer;
    Rng rng(GetParam() * 5 + 2);
    auto program = prog::generateProg(rng, kernel.table());
    // Long mutation chains stay valid.
    for (int step = 0; step < 60; ++step) {
        program = mutator.mutate(program, rng, localizer);
        auto error = prog::validateProg(program);
        ASSERT_FALSE(error.has_value())
            << "step " << step << ": " << *error;
    }
}

TEST_P(SeedSweep, FlattenedArityInvariantUnderMutation)
{
    auto kernel = makeKernel();
    mut::Mutator mutator(kernel.table());
    mut::RandomLocalizer localizer;
    Rng rng(GetParam() * 7 + 3);
    auto program = prog::generateProg(rng, kernel.table());
    for (int step = 0; step < 40; ++step) {
        program = mutator.mutate(program, rng, localizer);
        for (const auto &call : program.calls) {
            const auto slots = prog::flattenCall(
                call, prog::identityReturns(program.calls.size()));
            EXPECT_EQ(slots.size(), prog::slotCount(*call.decl));
        }
    }
}

TEST_P(SeedSweep, KernelHandlersAlwaysTerminate)
{
    auto kernel = makeKernel();
    Rng rng(GetParam() * 11 + 4);
    exec::Executor executor(kernel);
    for (int i = 0; i < 40; ++i) {
        auto program = prog::generateProg(rng, kernel.table());
        auto result = executor.run(program);
        // Every executed call leaves a bounded trace.
        for (const auto &call : result.calls) {
            EXPECT_GT(call.blocks.size(), 0u);
            EXPECT_LT(call.blocks.size(), kernel.blocks().size());
        }
    }
}

TEST_P(SeedSweep, DeterministicExecutionReproducible)
{
    auto kernel = makeKernel();
    Rng rng(GetParam() * 13 + 5);
    exec::Executor executor(kernel);
    auto program = prog::generateProg(rng, kernel.table());
    auto a = executor.run(program);
    auto b = executor.run(program);
    EXPECT_EQ(a.coverage.edgeCount(), b.coverage.edgeCount());
    EXPECT_EQ(a.crashed, b.crashed);
}

TEST_P(SeedSweep, BugSitesAreOffTheDefaultPath)
{
    auto kernel = makeKernel();
    for (const auto &bug : kernel.bugs()) {
        const auto &bb = kernel.block(bug.block);
        EXPECT_GE(bb.depth, bug.known ? 1 : 2);
    }
}

TEST_P(SeedSweep, EvolutionPreservesBaseAbi)
{
    kern::KernelGenParams base;
    base.seed = GetParam();
    base.num_syscalls = 10;
    auto v0 = kern::generateKernel(base);
    auto evolved_params = base;
    evolved_params.evolution = 2;
    auto v2 = kern::generateKernel(evolved_params);

    ASSERT_GE(v2.table().decls.size(), v0.table().decls.size());
    for (size_t i = 0; i < v0.table().decls.size(); ++i) {
        EXPECT_EQ(v0.table().decls[i].name, v2.table().decls[i].name);
        EXPECT_EQ(prog::slotCount(v0.table().decls[i]),
                  prog::slotCount(v2.table().decls[i]));
    }
    EXPECT_GE(v2.blocks().size(), v0.blocks().size());
}

TEST_P(SeedSweep, QueryGraphEncodesForAnyProgram)
{
    auto kernel = makeKernel();
    Rng rng(GetParam() * 17 + 6);
    exec::Executor executor(kernel);
    for (int i = 0; i < 10; ++i) {
        auto program = prog::generateProg(rng, kernel.table());
        auto result = executor.run(program);
        auto frontier =
            graph::alternativeFrontier(kernel, result.coverage);
        auto query =
            graph::buildQueryGraph(kernel, program, result, frontier);
        auto enc = graph::encodeGraph(kernel, query);
        EXPECT_EQ(static_cast<size_t>(enc.num_nodes),
                  query.nodes.size());
        // Every argument node index is in range and of Argument kind.
        for (int32_t idx : enc.argument_nodes) {
            ASSERT_GE(idx, 0);
            ASSERT_LT(idx, enc.num_nodes);
            EXPECT_EQ(enc.node_kind[static_cast<size_t>(idx)],
                      static_cast<int32_t>(graph::NodeKind::Argument));
        }
        // Edge endpoints are in range for every relation.
        for (const auto &adj : enc.adj) {
            for (size_t e = 0; e < adj.src.size(); ++e) {
                EXPECT_GE(adj.src[e], 0);
                EXPECT_LT(adj.src[e], enc.num_nodes);
                EXPECT_GE(adj.dst[e], 0);
                EXPECT_LT(adj.dst[e], enc.num_nodes);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Mutation-type distribution sweep: the selector respects its weights.

struct SelectorCase
{
    double arg_weight;
    double insert_weight;
    double remove_weight;
};

class SelectorSweep : public ::testing::TestWithParam<SelectorCase>
{
};

TEST_P(SelectorSweep, FrequenciesTrackWeights)
{
    kern::KernelGenParams params;
    params.seed = 9;
    auto kernel = kern::generateKernel(params);
    mut::MutatorOptions opts;
    opts.arg_mutation_weight = GetParam().arg_weight;
    opts.insert_weight = GetParam().insert_weight;
    opts.remove_weight = GetParam().remove_weight;
    mut::Mutator mutator(kernel.table(), opts);

    Rng rng(17);
    auto program = prog::generateProg(rng, kernel.table());
    if (program.calls.size() < 2 || mut::allArgLocations(program).empty())
        GTEST_SKIP() << "degenerate program";

    int counts[3] = {0, 0, 0};
    const int n = 3000;
    for (int i = 0; i < n; ++i)
        counts[static_cast<int>(mutator.selectType(rng, program))]++;

    const double total = GetParam().arg_weight +
                         GetParam().insert_weight +
                         GetParam().remove_weight;
    EXPECT_NEAR(static_cast<double>(counts[0]) / n,
                GetParam().arg_weight / total, 0.05);
    EXPECT_NEAR(static_cast<double>(counts[1]) / n,
                GetParam().insert_weight / total, 0.05);
    EXPECT_NEAR(static_cast<double>(counts[2]) / n,
                GetParam().remove_weight / total, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Weights, SelectorSweep,
    ::testing::Values(SelectorCase{0.6, 0.25, 0.15},
                      SelectorCase{1.0, 0.0, 0.0},
                      SelectorCase{0.2, 0.6, 0.2},
                      SelectorCase{0.33, 0.33, 0.34}));

}  // namespace
}  // namespace sp
