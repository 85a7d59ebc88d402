// Tests for the fuzzing extensions: the white-box oracle localizer.

#include <gtest/gtest.h>

#include "core/oracle.h"
#include "kernel/subsystems.h"
#include "mutate/mutator.h"
#include "prog/gen.h"

namespace sp {
namespace {

const kern::Kernel &
testKernel()
{
    static kern::Kernel kernel = [] {
        kern::KernelGenParams params;
        params.seed = 6;
        return kern::buildBaseKernel(params);
    }();
    return kernel;
}

TEST(Oracle, SelectsGuardArguments)
{
    const auto &kernel = testKernel();
    core::OracleLocalizer oracle(kernel);
    exec::Executor executor(kernel);
    Rng rng(9);

    // The oracle's sites must each be an argument whose slot guards a
    // frontier branch of the base coverage.
    auto program = prog::generateProg(rng, kernel.table());
    auto result = executor.run(program);
    auto sites = oracle.localizeWithResult(program, result, rng, 8);
    ASSERT_FALSE(sites.empty());
    for (const auto &site : sites) {
        ASSERT_LT(site.call_index, program.calls.size());
        prog::argAtPath(program.calls[site.call_index],
                        site.point.path);
    }
}

TEST(Oracle, BeatsRandomOnPerMutationRate)
{
    const auto &kernel = testKernel();
    core::OracleLocalizer oracle(kernel);
    mut::RandomLocalizer random_localizer;
    mut::Mutator mutator(kernel.table());
    exec::Executor executor(kernel);

    Rng rng(11);
    auto corpus = prog::generateCorpus(rng, kernel.table(), 50);

    auto rate = [&](mut::Localizer &localizer) {
        Rng lrng(5);
        size_t hits = 0, total = 0;
        for (const auto &base : corpus) {
            auto base_result = executor.run(base);
            if (base_result.crashed)
                continue;
            auto sites = localizer.localizeWithResult(base, base_result,
                                                      lrng, 4);
            for (const auto &site : sites) {
                prog::Prog mutant;
                mutant.calls = base.calls;
                if (!mutator.instantiateArgMutation(mutant, site, lrng))
                    continue;
                auto result = executor.run(mutant);
                hits += (base_result.coverage.countNewEdges(
                             result.coverage) > 0);
                ++total;
            }
        }
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    };

    const double oracle_rate = rate(oracle);
    const double random_rate = rate(random_localizer);
    EXPECT_GT(oracle_rate, random_rate * 1.3);
}

}  // namespace
}  // namespace sp
