// Tests for the decision-policy seam (fuzz/policy.h): the default
// StaticPolicy must reproduce the pre-refactor fuzzing timeline
// bit-for-bit (goldens captured on the commit before the policy layer
// landed), ThompsonPolicy's posterior evolution must be deterministic
// for a fixed seed, shard merging must be order-independent, and a
// 4-worker Thompson campaign must hold the checkpoint grid (this test
// also runs under TSan in CI stage 3).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/infer.h"
#include "core/snowplow.h"
#include "fuzz/campaign.h"
#include "fuzz/policy.h"
#include "kernel/subsystems.h"
#include "prog/gen.h"

namespace sp::fuzz {
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

FuzzOptions
smallCampaign(uint64_t seed)
{
    FuzzOptions opts;
    opts.exec_budget = 1500;
    opts.seed = seed;
    opts.seed_corpus_size = 20;
    opts.checkpoint_every = 250;
    return opts;
}

/** One checkpoint of a pre-refactor golden timeline. */
struct GoldenPoint
{
    uint64_t execs;
    size_t edges;
    size_t blocks;
    size_t crashes;
};

/** Per-lane (produced, admitted) golden counts, lane-indexed. */
struct GoldenLanes
{
    std::array<uint64_t, kMutationLanes> produced;
    std::array<uint64_t, kMutationLanes> admitted;
};

void
expectGolden(const FuzzReport &report,
             const std::vector<GoldenPoint> &timeline, size_t edges,
             size_t blocks, uint64_t execs, size_t corpus,
             size_t crashes, const GoldenLanes &lanes)
{
    ASSERT_EQ(report.timeline.size(), timeline.size());
    for (size_t i = 0; i < timeline.size(); ++i) {
        EXPECT_EQ(report.timeline[i].execs, timeline[i].execs) << i;
        EXPECT_EQ(report.timeline[i].edges, timeline[i].edges) << i;
        EXPECT_EQ(report.timeline[i].blocks, timeline[i].blocks) << i;
        EXPECT_EQ(report.timeline[i].crashes, timeline[i].crashes)
            << i;
    }
    EXPECT_EQ(report.final_edges, edges);
    EXPECT_EQ(report.final_blocks, blocks);
    EXPECT_EQ(report.execs, execs);
    EXPECT_EQ(report.corpus_size, corpus);
    EXPECT_EQ(report.final_crashes, crashes);
    for (size_t lane = 0; lane < kMutationLanes; ++lane) {
        EXPECT_EQ(report.lanes[lane].produced, lanes.produced[lane])
            << lane;
        EXPECT_EQ(report.lanes[lane].admitted, lanes.admitted[lane])
            << lane;
    }
}

void
expectSameReport(const FuzzReport &a, const FuzzReport &b)
{
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (size_t i = 0; i < a.timeline.size(); ++i) {
        EXPECT_EQ(a.timeline[i].execs, b.timeline[i].execs) << i;
        EXPECT_EQ(a.timeline[i].edges, b.timeline[i].edges) << i;
        EXPECT_EQ(a.timeline[i].blocks, b.timeline[i].blocks) << i;
        EXPECT_EQ(a.timeline[i].crashes, b.timeline[i].crashes) << i;
    }
    EXPECT_EQ(a.final_edges, b.final_edges);
    EXPECT_EQ(a.final_blocks, b.final_blocks);
    EXPECT_EQ(a.execs, b.execs);
    EXPECT_EQ(a.corpus_size, b.corpus_size);
    EXPECT_EQ(a.final_crashes, b.final_crashes);
    for (size_t lane = 0; lane < kMutationLanes; ++lane) {
        EXPECT_EQ(a.lanes[lane].produced, b.lanes[lane].produced)
            << lane;
        EXPECT_EQ(a.lanes[lane].admitted, b.lanes[lane].admitted)
            << lane;
    }
}

// ----------------------------------------------------------------------
// StaticPolicy identity: checkpoint-for-checkpoint against goldens
// captured from the pre-policy loop (commit before this refactor) with
// exactly these configurations. Any RNG-stream drift in the policy
// seam — an extra draw, a reordered draw — shifts every number below.
// ----------------------------------------------------------------------

TEST(StaticPolicy, ReproducesPreRefactorSyzkallerTimeline)
{
    const auto &kernel = testKernel();
    const auto opts = smallCampaign(33);
    const std::vector<GoldenPoint> golden = {
        {250, 150, 152, 4},  {500, 163, 159, 4},
        {750, 192, 178, 4},  {1000, 207, 190, 4},
        {1250, 220, 198, 4}, {1500, 237, 209, 4},
    };
    GoldenLanes lanes;
    lanes.produced = {20, 1332, 148};
    lanes.admitted = {18, 42, 14};

    CampaignOptions campaign_opts;
    campaign_opts.workers = 1;
    campaign_opts.fuzz = opts;
    auto engine = core::makeSyzkallerCampaign(kernel, campaign_opts);
    expectGolden(engine->run(), golden, 237, 209, 1500, 74, 4, lanes);
}

TEST(StaticPolicy, ReproducesPreRefactorSnowplowTimeline)
{
    const auto &kernel = testKernel();
    const auto opts = smallCampaign(77);
    core::Pmm model;  // deterministic default-initialized weights
    const std::vector<GoldenPoint> golden = {
        {250, 195, 196, 5},  {500, 225, 206, 5},
        {750, 244, 212, 5},  {1000, 252, 216, 5},
        {1250, 252, 216, 5}, {1500, 261, 224, 5},
    };
    GoldenLanes lanes;
    lanes.produced = {20, 1330, 150};
    lanes.admitted = {17, 38, 8};

    CampaignOptions campaign_opts;
    campaign_opts.workers = 1;
    campaign_opts.fuzz = opts;
    auto engine =
        core::makeSnowplowCampaign(kernel, model, campaign_opts);
    expectGolden(engine->run(), golden, 261, 224, 1500, 63, 5, lanes);
}

// ----------------------------------------------------------------------
// Arm bookkeeping
// ----------------------------------------------------------------------

TEST(DecisionPolicy, ArmIndexIsDenseAndInvertible)
{
    ThompsonPolicy policy(PolicyOptions{});
    std::vector<bool> seen(policy.armCount(), false);
    for (size_t b = 0; b < policy.bucketCount(); ++b) {
        for (size_t op = 0; op < kOpClasses; ++op) {
            for (size_t ch = 0; ch < mut::kLocalizerChannels; ++ch) {
                const int arm = policy.armFor(
                    b, static_cast<mut::MutationType>(op),
                    static_cast<mut::LocalizerChannel>(ch));
                ASSERT_GE(arm, 0);
                ASSERT_LT(static_cast<size_t>(arm),
                          policy.armCount());
                EXPECT_FALSE(seen[static_cast<size_t>(arm)]);
                seen[static_cast<size_t>(arm)] = true;
            }
        }
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](bool b) { return b; }));
}

TEST(DecisionPolicy, BucketOfQuantizesAdmissionAge)
{
    ThompsonPolicy policy(PolicyOptions{});
    CorpusEntry entry;
    entry.admitted_at_exec = 0;
    EXPECT_EQ(policy.bucketOf(entry, 1000), 0u);
    entry.admitted_at_exec = 999;
    EXPECT_EQ(policy.bucketOf(entry, 1000),
              policy.bucketCount() - 1);
    entry.admitted_at_exec = 500;
    EXPECT_EQ(policy.bucketOf(entry, 1000), 2u);
    // Degenerate clock: everything is "new".
    EXPECT_EQ(policy.bucketOf(entry, 0), policy.bucketCount() - 1);
    // Admissions past the clock clamp to the last bucket.
    entry.admitted_at_exec = 5000;
    EXPECT_EQ(policy.bucketOf(entry, 1000),
              policy.bucketCount() - 1);
}

TEST(DecisionPolicy, ShardMergeIsOrderIndependent)
{
    PolicyOptions popts;
    popts.kind = PolicyKind::Thompson;

    // A deterministic event stream of (worker, arm, success) rewards,
    // replayed forward into one policy and reversed into another: the
    // merged posterior is a commutative sum, so order must not matter.
    auto replay = [&popts](DecisionPolicy &policy, bool reversed) {
        policy.beginCampaign(4);
        std::vector<std::array<uint64_t, 3>> events;
        Rng rng(123);
        for (int i = 0; i < 500; ++i) {
            events.push_back({rng.below(4),
                              rng.below(policy.armCount()),
                              rng.below(2)});
        }
        if (reversed)
            std::reverse(events.begin(), events.end());
        for (const auto &event : events) {
            Reward reward;
            reward.new_edges = static_cast<size_t>(event[2]);
            reward.slot = 1;
            policy.recordReward(static_cast<size_t>(event[0]),
                                static_cast<int>(event[1]), reward);
        }
        policy.onCheckpoint(500);
    };

    ThompsonPolicy forward(popts), backward(popts);
    replay(forward, false);
    replay(backward, true);
    uint64_t total_pulls = 0;
    for (size_t arm = 0; arm < forward.armCount(); ++arm) {
        EXPECT_EQ(forward.mergedPulls(static_cast<int>(arm)),
                  backward.mergedPulls(static_cast<int>(arm)))
            << arm;
        EXPECT_EQ(forward.mergedWins(static_cast<int>(arm)),
                  backward.mergedWins(static_cast<int>(arm)))
            << arm;
        total_pulls += forward.mergedPulls(static_cast<int>(arm));
    }
    EXPECT_EQ(total_pulls, 500u);
    // Unattributed rewards (seed-stage executions) are dropped.
    Reward reward;
    reward.new_edges = 1;
    forward.recordReward(0, -1, reward);
    forward.onCheckpoint(501);
    uint64_t after = 0;
    for (size_t arm = 0; arm < forward.armCount(); ++arm)
        after += forward.mergedPulls(static_cast<int>(arm));
    EXPECT_EQ(after, total_pulls);
}

// ----------------------------------------------------------------------
// ThompsonPolicy behavior
// ----------------------------------------------------------------------

TEST(ThompsonPolicy, PosteriorEvolutionIsDeterministic)
{
    const auto &kernel = testKernel();
    core::Pmm model;

    auto runOnce = [&](const std::shared_ptr<DecisionPolicy> &policy) {
        CampaignOptions campaign_opts;
        campaign_opts.workers = 1;
        campaign_opts.fuzz = smallCampaign(15);
        campaign_opts.fuzz.policy.kind = PolicyKind::Thompson;
        campaign_opts.fuzz.policy.custom = policy;
        auto engine =
            core::makeSnowplowCampaign(kernel, model, campaign_opts);
        return engine->run();
    };

    PolicyOptions popts;
    popts.kind = PolicyKind::Thompson;
    auto first = std::make_shared<ThompsonPolicy>(popts);
    auto second = std::make_shared<ThompsonPolicy>(popts);
    const auto report_a = runOnce(first);
    const auto report_b = runOnce(second);

    // Same seed, same worker count: identical timeline AND identical
    // posterior state arm-for-arm.
    expectSameReport(report_a, report_b);
    uint64_t total_pulls = 0;
    for (size_t arm = 0; arm < first->armCount(); ++arm) {
        EXPECT_EQ(first->mergedPulls(static_cast<int>(arm)),
                  second->mergedPulls(static_cast<int>(arm)))
            << arm;
        EXPECT_EQ(first->mergedWins(static_cast<int>(arm)),
                  second->mergedWins(static_cast<int>(arm)))
            << arm;
        total_pulls += first->mergedPulls(static_cast<int>(arm));
    }
    // Every mutation-lane execution pulled exactly one arm; only the
    // seed stage is unattributed.
    EXPECT_EQ(total_pulls,
              report_a.lane(MutationLane::Argument).produced +
                  report_a.lane(MutationLane::Structural).produced);
    EXPECT_GT(first->pmmShare(), 0.0);
    EXPECT_LE(first->pmmShare(), 1.0);
    const std::string status = first->statusJson();
    EXPECT_NE(status.find("\"kind\":\"thompson\""), std::string::npos);
    EXPECT_NE(status.find("\"channel_pulls\""), std::string::npos);
}

TEST(ThompsonPolicy, FourWorkerCampaignHoldsTheCheckpointGrid)
{
    const auto &kernel = testKernel();
    core::Pmm model;
    CampaignOptions campaign_opts;
    campaign_opts.workers = 4;
    campaign_opts.fuzz = smallCampaign(19);
    campaign_opts.fuzz.exec_budget = 2000;
    campaign_opts.fuzz.policy.kind = PolicyKind::Thompson;

    auto engine =
        core::makeSnowplowCampaign(kernel, model, campaign_opts);
    const auto report = engine->run();

    EXPECT_EQ(report.execs, 2000u);
    ASSERT_EQ(report.timeline.size(), 2000u / 250u);
    for (size_t i = 0; i < report.timeline.size(); ++i)
        EXPECT_EQ(report.timeline[i].execs, (i + 1) * 250);
    for (size_t i = 1; i < report.timeline.size(); ++i) {
        EXPECT_GE(report.timeline[i].edges,
                  report.timeline[i - 1].edges);
        EXPECT_GE(report.timeline[i].blocks,
                  report.timeline[i - 1].blocks);
    }
    EXPECT_GT(report.final_edges, 0u);
}

// ----------------------------------------------------------------------
// Localizer reward channels (the async forced-random satellite): while
// a prediction is in flight the model was *requested* but could not
// answer, and the outcome must be attributed to ForcedRandom — not to
// the model's arm, not to the deliberate-random arm.
// ----------------------------------------------------------------------

TEST(LocalizerChannel, AsyncPendingPredictionsReportForcedRandom)
{
    const auto &kernel = testKernel();
    core::Pmm model;
    core::InferenceService service(model, 1);
    core::AsyncPmmLocalizer localizer(kernel, service);
    Rng rng(9);

    // A base with argument nodes (so the query actually submits).
    auto corpus = prog::generateCorpus(rng, kernel.table(), 8);
    const prog::Prog *base = nullptr;
    for (const auto &program : corpus) {
        if (!mut::allArgLocations(program).empty()) {
            base = &program;
            break;
        }
    }
    ASSERT_NE(base, nullptr);
    exec::Executor executor(kernel);
    const auto result = executor.run(*base);

    // First sight submits the query and answers with random stand-ins.
    auto first = localizer.localizeChosen(*base, result, rng, 4, true);
    EXPECT_EQ(first.channel, mut::LocalizerChannel::ForcedRandom);
    EXPECT_FALSE(first.sites.empty());

    // Once the prediction lands, the channel flips to Model.
    auto channel = first.channel;
    for (int i = 0;
         i < 400 && channel != mut::LocalizerChannel::Model; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        channel =
            localizer.localizeChosen(*base, result, rng, 4, true)
                .channel;
    }
    EXPECT_EQ(channel, mut::LocalizerChannel::Model);

    // The policy choosing the fallback is the deliberate Random
    // channel regardless of cache state.
    EXPECT_EQ(
        localizer.localizeChosen(*base, result, rng, 4, false).channel,
        mut::LocalizerChannel::Random);
}

TEST(LocalizerChannel, SyncLocalizerReportsModelVsRandom)
{
    const auto &kernel = testKernel();
    core::Pmm model;
    core::PmmLocalizer localizer(kernel, model);
    Rng rng(9);
    auto corpus = prog::generateCorpus(rng, kernel.table(), 1);
    exec::Executor executor(kernel);
    const auto result = executor.run(corpus[0]);

    EXPECT_EQ(localizer.localizeChosen(corpus[0], result, rng, 4, true)
                  .channel,
              mut::LocalizerChannel::Model);
    EXPECT_EQ(
        localizer.localizeChosen(corpus[0], result, rng, 4, false)
            .channel,
        mut::LocalizerChannel::Random);
    EXPECT_TRUE(localizer.learned());
    EXPECT_FALSE(mut::RandomLocalizer().learned());
}

}  // namespace
}  // namespace sp::fuzz
