// Tests for the staged campaign runtime: the virtual-time budget
// ledger, per-worker RNG stream splitting, the sharded corpus under
// concurrency, and the campaign engine itself (1-worker determinism,
// the multi-worker checkpoint grid, lane accounting, the mutation
// observer's contract, the scheduler seam, campaign-owned metrics).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/snowplow.h"
#include "fuzz/campaign.h"
#include "kernel/subsystems.h"
#include "obs/covmap.h"
#include "obs/metrics.h"
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

TEST(BudgetLedger, GrantsNeverSpanCheckpointBoundaries)
{
    BudgetLedger ledger(1000, 64);
    // First claim starts at 0: 64 - 0 % 64 = 64 slots max.
    auto grant = ledger.claim(100);
    EXPECT_EQ(grant.begin, 0u);
    EXPECT_EQ(grant.count, 64u);
    // Mid-grid claim is trimmed to the next boundary.
    grant = ledger.claim(100);
    EXPECT_EQ(grant.begin, 64u);
    EXPECT_EQ(grant.count, 64u);
    // Small claims inside one grid cell pass through.
    grant = ledger.claim(3);
    EXPECT_EQ(grant.begin, 128u);
    EXPECT_EQ(grant.count, 3u);
    grant = ledger.claim(100);
    EXPECT_EQ(grant.begin, 131u);
    EXPECT_EQ(grant.count, 61u);  // up to 192, not past it
}

TEST(BudgetLedger, ExhaustsExactlyAtBudget)
{
    BudgetLedger ledger(10, 4);
    uint64_t total = 0;
    while (true) {
        auto grant = ledger.claim(3);
        if (grant.empty())
            break;
        total += grant.count;
    }
    EXPECT_EQ(total, 10u);
    EXPECT_TRUE(ledger.exhausted());
    EXPECT_EQ(ledger.claimed(), 10u);
    // Further bounded claims stay empty.
    EXPECT_TRUE(ledger.claim(1).empty());
}

TEST(BudgetLedger, UnboundedClaimsIgnoreTheBudget)
{
    BudgetLedger ledger(5, 100);
    for (int i = 0; i < 8; ++i) {
        auto grant = ledger.claim(1, /*bounded=*/false);
        EXPECT_EQ(grant.count, 1u);
        ledger.complete(grant);
    }
    // The seed phase overshot the budget; bounded claims see that.
    EXPECT_TRUE(ledger.exhausted());
    EXPECT_TRUE(ledger.claim(1).empty());
    EXPECT_EQ(ledger.completed(), 8u);
}

TEST(BudgetLedger, PrefixWatermarkAdvancesOnlyContiguously)
{
    BudgetLedger ledger(12, 4);
    const auto g0 = ledger.claim(4);  // [0, 4)
    const auto g1 = ledger.claim(4);  // [4, 8)
    const auto g2 = ledger.claim(4);  // [8, 12)

    // Out-of-order completions raise the total but not the prefix:
    // a checkpoint at slot 4 must still see slot 1 as outstanding.
    ledger.complete(g1);
    ledger.complete(g2);
    EXPECT_EQ(ledger.completed(), 8u);
    EXPECT_EQ(ledger.prefixCompleted(), 0u);

    // Closing the gap merges every stranded run in one step.
    ledger.complete(g0);
    EXPECT_EQ(ledger.completed(), 12u);
    EXPECT_EQ(ledger.prefixCompleted(), 12u);
}

TEST(BudgetLedger, WaitForPrefixBlocksUntilEarlierSlotsFinish)
{
    BudgetLedger ledger(8, 4);
    const auto g0 = ledger.claim(4);
    const auto g1 = ledger.claim(4);
    ledger.complete(g1);  // later slots landing early must not unblock

    std::atomic<bool> woke{false};
    std::thread waiter([&] {
        ledger.waitForPrefix(4);
        woke.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(woke.load());
    ledger.complete(g0);
    waiter.join();
    EXPECT_TRUE(woke.load());
    EXPECT_EQ(ledger.prefixCompleted(), 8u);

    // Satisfied waits return immediately.
    ledger.waitForPrefix(8);
}

TEST(SplitSeed, StreamZeroIsTheIdentity)
{
    EXPECT_EQ(splitSeed(12345, 0), 12345u);
    EXPECT_EQ(splitSeed(0, 0), 0u);
}

TEST(SplitSeed, StreamsDecorrelate)
{
    // Different streams of one seed, and the same stream of different
    // seeds, must all differ.
    EXPECT_NE(splitSeed(1, 1), splitSeed(1, 2));
    EXPECT_NE(splitSeed(1, 1), splitSeed(2, 1));
    EXPECT_NE(splitSeed(1, 1), 1u);
    // Nearby worker ids produce streams whose first draws diverge.
    Rng a(splitSeed(99, 1)), b(splitSeed(99, 2));
    EXPECT_NE(a.next(), b.next());
}

TEST(ShardedCorpus, ConcurrentAdmissionKeepsCountsConsistent)
{
    const auto &kernel = testKernel();
    constexpr size_t kThreads = 4;
    Corpus corpus(kThreads);

    // Pre-generate distinct programs + results per thread.
    std::vector<std::vector<prog::Prog>> programs(kThreads);
    std::vector<std::vector<exec::ExecResult>> results(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
        Rng rng(1000 + t);
        exec::Executor executor(kernel);
        programs[t] = prog::generateCorpus(rng, kernel.table(), 40);
        for (const auto &program : programs[t])
            results[t].push_back(executor.run(program));
    }

    std::atomic<size_t> admitted{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (size_t i = 0; i < programs[t].size(); ++i) {
                if (corpus.maybeAdd(programs[t][i], results[t][i],
                                    t * 100 + i))
                    admitted.fetch_add(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(corpus.size(), admitted.load());
    EXPECT_EQ(corpus.edgeCount(), corpus.totalCoverage().edgeCount());
    EXPECT_EQ(corpus.blockCount(), corpus.totalCoverage().blockCount());
    ASSERT_GT(corpus.size(), 0u);
    // Every admitted entry is reachable through the global index.
    for (size_t i = 0; i < corpus.size(); ++i)
        EXPECT_NE(corpus.entry(i).program.calls.size(), 0u);
    // pick() hits multiple shards.
    Rng rng(7);
    std::unordered_set<uint64_t> seen;
    for (int i = 0; i < 300; ++i)
        seen.insert(corpus.pick(rng).content_hash);
    EXPECT_GT(seen.size(), 1u);
}

TEST(CampaignEngine, RunsAreDeterministicGivenSeed)
{
    const auto &kernel = testKernel();
    CampaignOptions campaign_opts;
    campaign_opts.workers = 1;
    campaign_opts.fuzz = smallCampaign(5);

    auto first = core::makeSyzkallerCampaign(kernel, campaign_opts);
    auto second = core::makeSyzkallerCampaign(kernel, campaign_opts);
    expectSameReport(first->run(), second->run());
}

TEST(CampaignEngine, MultiWorkerKeepsTheCheckpointGrid)
{
    const auto &kernel = testKernel();
    CampaignOptions campaign_opts;
    campaign_opts.workers = 4;
    campaign_opts.fuzz = smallCampaign(11);
    campaign_opts.fuzz.exec_budget = 2000;

    auto engine = core::makeSyzkallerCampaign(kernel, campaign_opts);
    const auto report = engine->run();

    // Exactly the execution grid the single-worker loop would emit.
    ASSERT_EQ(report.timeline.size(), 2000u / 250u);
    for (size_t i = 0; i < report.timeline.size(); ++i)
        EXPECT_EQ(report.timeline[i].execs, (i + 1) * 250);
    // The timeline is monotone: coverage and crashes never regress.
    for (size_t i = 1; i < report.timeline.size(); ++i) {
        EXPECT_GE(report.timeline[i].edges,
                  report.timeline[i - 1].edges);
        EXPECT_GE(report.timeline[i].blocks,
                  report.timeline[i - 1].blocks);
        EXPECT_GE(report.timeline[i].crashes,
                  report.timeline[i - 1].crashes);
    }
    // Bounded claims stop exactly at the budget.
    EXPECT_EQ(report.execs, 2000u);
    EXPECT_EQ(report.final_edges, report.timeline.back().edges);
}

TEST(CampaignEngine, LaneCountsAreConsistent)
{
    const auto &kernel = testKernel();
    CampaignOptions campaign_opts;
    campaign_opts.workers = 2;
    campaign_opts.fuzz = smallCampaign(21);

    auto engine = core::makeSyzkallerCampaign(kernel, campaign_opts);
    const auto report = engine->run();

    uint64_t produced = 0, admitted = 0;
    for (size_t lane = 0; lane < kMutationLanes; ++lane) {
        produced += report.lanes[lane].produced;
        admitted += report.lanes[lane].admitted;
    }
    // Every execution is attributed to exactly one lane, and every
    // corpus entry to exactly one admission.
    EXPECT_EQ(produced, report.execs);
    EXPECT_EQ(admitted, report.corpus_size);
    EXPECT_GT(report.lane(MutationLane::Seed).produced, 0u);
    EXPECT_GT(report.lane(MutationLane::Argument).produced, 0u);
    EXPECT_GT(report.lane(MutationLane::Structural).produced, 0u);
}

/** Same decl and argument values (Prog::equals for one call). */
bool
sameCall(const prog::Call &a, const prog::Call &b)
{
    if (a.decl != b.decl || a.args.size() != b.args.size())
        return false;
    for (size_t i = 0; i < a.args.size(); ++i)
        if (!a.args[i]->equals(*b.args[i]))
            return false;
    return true;
}

class MutationObserverContract : public ::testing::TestWithParam<size_t>
{
};

TEST_P(MutationObserverContract, MutantDiffersFromBaseOnlyAtTheSiteCall)
{
    // The argument lane mutates one scratch copy of the base in place
    // and restores the site's call after each mutant, so every event
    // must see a mutant that is the base except at site->call_index.
    const auto &kernel = testKernel();
    CampaignOptions campaign_opts;
    campaign_opts.workers = GetParam();
    campaign_opts.fuzz = smallCampaign(17);
    std::atomic<uint64_t> events{0};
    std::atomic<uint64_t> changed{0};
    std::atomic<uint64_t> violations{0};
    campaign_opts.on_mutation = [&](const MutationEvent &event) {
        events.fetch_add(1);
        const prog::Prog &base = *event.base;
        const prog::Prog &mutant = *event.mutant;
        if (mutant.calls.size() != base.calls.size()) {
            violations.fetch_add(1);
            return;
        }
        for (size_t i = 0; i < base.calls.size(); ++i) {
            const bool same = sameCall(mutant.calls[i], base.calls[i]);
            if (i == event.site->call_index)
                changed.fetch_add(same ? 0 : 1);
            else if (!same)
                violations.fetch_add(1);
        }
    };

    auto engine = core::makeSyzkallerCampaign(kernel, campaign_opts);
    const auto report = engine->run();
    EXPECT_EQ(events.load(),
              report.lane(MutationLane::Argument).produced);
    EXPECT_GT(events.load(), 100u);
    EXPECT_GT(changed.load(), 0u);
    EXPECT_EQ(violations.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Workers, MutationObserverContract,
                         ::testing::Values(size_t{1}, size_t{4}));

/** Uniform pick that counts its calls. */
class CountingScheduler : public Scheduler
{
  public:
    const CorpusEntry &
    pick(const Corpus &corpus, Rng &rng) override
    {
        picks.fetch_add(1);
        return corpus.entry(rng.below(corpus.size()));
    }

    std::atomic<uint64_t> picks{0};
};

TEST(CampaignEngine, SchedulerSeamIsHonored)
{
    const auto &kernel = testKernel();
    CampaignOptions campaign_opts;
    campaign_opts.workers = 1;
    campaign_opts.fuzz = smallCampaign(3);
    auto scheduler = std::make_shared<CountingScheduler>();
    campaign_opts.fuzz.scheduler = scheduler;

    auto engine = core::makeSyzkallerCampaign(kernel, campaign_opts);
    const auto report = engine->run();
    EXPECT_GT(scheduler->picks.load(), 10u);
    EXPECT_EQ(report.execs, campaign_opts.fuzz.exec_budget);
}

TEST(CampaignEngine, ConcurrentCampaignsCountIntoTheirOwnMetrics)
{
    // Two campaigns on two threads (a fleet node's concurrent leases,
    // run under TSan in CI): each registry counts its own campaign
    // exactly while the global registry sees both.
    const auto &kernel = testKernel();
    const obs::Counter &global_execs =
        obs::Registry::global().counter("fuzz.execs");
    const uint64_t global_before = global_execs.value();

    struct Run
    {
        std::unique_ptr<obs::CovMap> covmap;
        std::unique_ptr<CampaignEngine> engine;
        FuzzReport report;
    };
    Run runs[2];
    for (size_t i = 0; i < 2; ++i) {
        runs[i].covmap = std::make_unique<obs::CovMap>(
            obs::CovMapPlan::build(kernel.blocks().size(),
                                   kernel.staticEdges()),
            1);
        CampaignOptions campaign_opts;
        campaign_opts.fuzz = smallCampaign(40 + i);
        campaign_opts.fuzz.exec_budget = 1500 + 500 * i;
        campaign_opts.fuzz.covmap = runs[i].covmap.get();
        runs[i].engine = core::makeSyzkallerCampaign(kernel, campaign_opts);
    }
    std::thread other([&runs] { runs[1].report = runs[1].engine->run(); });
    runs[0].report = runs[0].engine->run();
    other.join();

    uint64_t total = 0;
    for (Run &run : runs) {
        obs::Registry &metrics = run.engine->metrics();
        EXPECT_EQ(metrics.counter("fuzz.execs").value(), run.report.execs);
        // One window per checkpoint plus the run's final one.
        EXPECT_EQ(metrics.counter("covmap.windows").value(),
                  run.report.timeline.size() + 1);
        total += run.report.execs;
    }
    EXPECT_NE(runs[0].report.execs, runs[1].report.execs);
    EXPECT_EQ(global_execs.value() - global_before, total);
}

}  // namespace
}  // namespace sp::fuzz
