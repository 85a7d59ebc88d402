// Timeline-observatory hot-path benchmarks, backing the <1%-per-
// checkpoint budget `ci/run_tier1.sh` enforces:
//
//  - BM_TimelineOverhead/enabled:0|1 — end-to-end campaign throughput
//    (the legacy single-worker loop) with and without a recorder
//    sampling every checkpoint into a JSONL artifact; items/s is
//    executions per second;
//  - BM_TimelineSample — the exact per-checkpoint work the serialized
//    checkpoint owner adds: one onCheckpoint() (registry sweep, delta
//    encode, artifact append, ring push). The CI gate divides this by
//    a full checkpoint interval's worth of slot time (stable micro
//    ratio, not a noisy end-to-end difference);
//  - BM_TimelineDisabledSite — the null-recorder branch every
//    timeline-less campaign pays per checkpoint (must be
//    unmeasurable).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "bench/common.h"
#include "core/snowplow.h"
#include "obs/timeline.h"

namespace {

using namespace sp;

constexpr uint64_t kCampaignBudget = 2000;
constexpr char kScratchLog[] = "/tmp/sp_bench_timeline.jsonl";

const kern::Kernel &
benchKernel()
{
    static kern::Kernel kernel = spbench::makeEvalKernel("6.8");
    return kernel;
}

/** A representative tick: covmap summary + a dozen active arms. */
obs::TimelineTick
sampleTick(uint64_t execs)
{
    obs::TimelineTick tick;
    tick.execs = execs;
    tick.edges = 350;
    tick.blocks = 280;
    tick.crashes = 4;
    tick.corpus_size = 120;
    tick.have_cov = true;
    tick.cov_blocks_hit = 280;
    tick.cov_edges_hit = 320;
    tick.cov_total_block_hits = 40000 + execs;
    tick.cov_frontier_size = 40;
    tick.cov_stray_edges = 60;
    tick.have_policy = true;
    tick.policy_name = "thompson";
    tick.pmm_share = 0.35;
    for (int arm = 0; arm < 12; ++arm)
        tick.arms.push_back(
            {arm * 3, 40 + execs / 625 + static_cast<uint64_t>(arm),
             5 + static_cast<uint64_t>(arm) / 2});
    return tick;
}

// One full campaign per iteration, with and without a recorder wired
// into the checkpoint path — exactly what `fuzz --timeline-out` adds
// over a plain `fuzz`.
void
BM_TimelineOverhead(benchmark::State &state)
{
    const bool enabled = state.range(0) != 0;
    const auto &kernel = benchKernel();
    for (auto _ : state) {
        auto recorder = enabled
                            ? std::make_unique<obs::TimelineRecorder>()
                            : nullptr;
        if (recorder != nullptr)
            recorder->openLog(kScratchLog);
        fuzz::CampaignOptions opts;
        opts.fuzz = spbench::evalFuzzOptions(kCampaignBudget, /*seed=*/9);
        opts.fuzz.timeline = recorder.get();
        auto report = core::makeSyzkallerCampaign(kernel, opts)->run();
        if (recorder != nullptr) {
            obs::TimelineTick tick;
            tick.execs = report.execs;
            tick.edges = report.final_edges;
            recorder->finalize(tick);
        }
        benchmark::DoNotOptimize(report.final_edges);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * kCampaignBudget));
    std::remove(kScratchLog);
}
BENCHMARK(BM_TimelineOverhead)->ArgNames({"enabled"})->Arg(0)->Arg(1);

// The per-checkpoint sampling work itself (items = samples). This is
// the numerator of the CI gate: one sample must cost under 1% of the
// slot work between two checkpoints.
void
BM_TimelineSample(benchmark::State &state)
{
    obs::TimelineRecorder recorder;
    recorder.openLog(kScratchLog);
    uint64_t execs = 0;
    for (auto _ : state) {
        execs += 625;
        recorder.onCheckpoint(sampleTick(execs));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    std::remove(kScratchLog);
}
BENCHMARK(BM_TimelineSample);

// Pure null-check cost at the checkpoint site when no recorder is
// attached (the default campaign configuration).
void
BM_TimelineDisabledSite(benchmark::State &state)
{
    obs::TimelineRecorder *recorder = nullptr;
    const obs::TimelineTick tick = sampleTick(625);
    for (auto _ : state) {
        if (recorder != nullptr)
            recorder->onCheckpoint(tick);
        benchmark::DoNotOptimize(recorder);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TimelineDisabledSite);

}  // namespace

BENCHMARK_MAIN();
