// Coverage-cartography hot-path benchmarks, backing the <2% overhead
// budget `ci/run_tier1.sh` enforces:
//
//  - BM_CovmapOverhead/enabled:0|1 — end-to-end campaign throughput
//    (the legacy single-worker loop: schedule, localize, instantiate,
//    execute, triage, checkpoint) with and without per-block hit
//    recording; items/s is executions per second;
//  - BM_CovmapRecordProgram — the exact per-execution recording work a
//    campaign worker adds: the fast backend's coverage pass over one
//    corpus program's call traces with a shard, minus the same pass
//    without one (the pass counts hits as it dedups coverage); the CI
//    gate divides this by the enabled:0 slot time, which is far more
//    stable than differencing two noisy end-to-end runs;
//  - BM_CovmapDisabledSite — the null-shard branch a covmap-less
//    campaign pays per execution (the backend picks its recording
//    variant once per run; must be unmeasurable);
//  - BM_CovmapMerge — the checkpoint owner's shard fold + frontier +
//    window derivation (off the worker hot path, but bounded so
//    checkpoint stalls stay invisible).

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <vector>

#include "bench/common.h"
#include "core/snowplow.h"
#include "exec/coverage.h"
#include "exec/executor.h"
#include "obs/covmap.h"
#include "prog/gen.h"
#include "util/rng.h"

namespace {

using namespace sp;

constexpr uint64_t kCampaignBudget = 2000;

const kern::Kernel &
benchKernel()
{
    static kern::Kernel kernel = spbench::makeEvalKernel("6.8");
    return kernel;
}

std::unique_ptr<obs::CovMap>
makeCovMap(size_t workers)
{
    const auto &kernel = benchKernel();
    return std::make_unique<obs::CovMap>(
        obs::CovMapPlan::build(kernel.blocks().size(),
                               kernel.staticEdges()),
        workers);
}

// One full campaign per iteration: covmap construction, recording at
// the execute stage and the per-checkpoint merges are all included,
// exactly what `fuzz --covmap-out` adds over a plain `fuzz`.
void
BM_CovmapOverhead(benchmark::State &state)
{
    const bool enabled = state.range(0) != 0;
    const auto &kernel = benchKernel();
    for (auto _ : state) {
        auto covmap = enabled ? makeCovMap(1) : nullptr;
        fuzz::CampaignOptions opts;
        opts.fuzz = spbench::evalFuzzOptions(kCampaignBudget, /*seed=*/9);
        opts.fuzz.covmap = covmap.get();
        auto report = core::makeSyzkallerCampaign(kernel, opts)->run();
        benchmark::DoNotOptimize(report.final_edges);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * kCampaignBudget));
}
BENCHMARK(BM_CovmapOverhead)->ArgNames({"enabled"})->Arg(0)->Arg(1);

// Pure null-check cost at the execute-stage site when no covmap is
// attached (the default campaign configuration).
void
BM_CovmapDisabledSite(benchmark::State &state)
{
    obs::CovShard *shard = nullptr;
    std::vector<uint32_t> blocks = {1, 2, 3, 4};
    for (auto _ : state) {
        if (shard != nullptr)
            shard->recordTrace(blocks);
        benchmark::DoNotOptimize(shard);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CovmapDisabledSite);

// The whole recording work of one executed program: the fast
// backend's coverage pass (DenseCoverage::beginExec + addTrace per
// call) over a real generated corpus, timed with a shard minus without
// one. Each iteration runs the whole corpus both ways, alternating
// which goes first, and reports the difference per program; the
// iteration count is fixed because the manual time per iteration is a
// small fraction of its real cost. This is the numerator of the CI
// overhead gate.
void
BM_CovmapRecordProgram(benchmark::State &state)
{
    const auto &kernel = benchKernel();
    Rng rng(13);
    exec::Executor executor(kernel);
    auto corpus = prog::generateCorpus(rng, kernel.table(), 64);
    std::vector<std::vector<std::vector<uint32_t>>> traces;
    size_t total_blocks = 0;
    for (const auto &program : corpus) {
        auto result = executor.run(program);
        auto &calls = traces.emplace_back();
        for (auto &call : result.calls) {
            total_blocks += call.blocks.size();
            calls.push_back(std::move(call.blocks));
        }
    }
    auto covmap = makeCovMap(1);
    obs::CovShard &shard = covmap->shard(0);
    const auto &succ = kernel.successorTable();
    exec::DenseCoverage coverage;
    coverage.bind(succ.data(), succ.size());

    using Clock = std::chrono::steady_clock;
    auto pass = [&](obs::CovShard *hits) {
        const auto start = Clock::now();
        for (const auto &calls : traces) {
            coverage.beginExec();
            for (const auto &blocks : calls) {
                if (hits != nullptr)
                    coverage.addTrace(blocks.data(), blocks.size(), *hits);
                else
                    coverage.addTrace(blocks.data(), blocks.size());
            }
            benchmark::DoNotOptimize(coverage.touchedEdges().data());
        }
        return std::chrono::duration<double>(Clock::now() - start).count();
    };
    const double programs = static_cast<double>(traces.size());
    double plain_total = 0.0;
    bool shard_first = true;
    for (auto _ : state) {
        double with = 0.0, without = 0.0;
        if (shard_first) {
            with = pass(&shard);
            without = pass(nullptr);
        } else {
            without = pass(nullptr);
            with = pass(&shard);
        }
        shard_first = !shard_first;
        plain_total += without;
        state.SetIterationTime((with - without) / programs);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    state.counters["blocks_per_program"] =
        static_cast<double>(total_blocks) / programs;
    state.counters["pass_ns"] =
        1e9 * plain_total /
        (programs * static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CovmapRecordProgram)->UseManualTime()->Iterations(4000);

// The checkpoint owner's merge: fold 4 worker shards into the
// cumulative map and derive the window delta + frontier.
void
BM_CovmapMerge(benchmark::State &state)
{
    const auto &kernel = benchKernel();
    Rng rng(17);
    exec::Executor executor(kernel);
    auto corpus = prog::generateCorpus(rng, kernel.table(), 32);
    auto covmap = makeCovMap(4);
    for (size_t i = 0; i < corpus.size(); ++i) {
        auto result = executor.run(corpus[i]);
        for (const auto &call : result.calls)
            covmap->shard(i % 4).recordTrace(call.blocks);
    }

    obs::Registry metrics(obs::Registry::global());  // as a campaign has
    uint64_t execs = 0;
    for (auto _ : state) {
        execs += 250;
        covmap->onCheckpoint(execs, metrics);
        benchmark::DoNotOptimize(covmap->summary().blocks_hit);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CovmapMerge);

}  // namespace

BENCHMARK_MAIN();
