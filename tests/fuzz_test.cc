// Tests for the campaign loop, corpus discipline and crash handling.

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "core/snowplow.h"
#include "exec/coverage.h"
#include "fuzz/campaign.h"
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

TEST(Corpus, AdmitsOnlyNewEdgeCoverage)
{
    const auto &kernel = testKernel();
    exec::Executor executor(kernel);
    Rng rng(1);
    Corpus corpus;

    auto programs = prog::generateCorpus(rng, kernel.table(), 20);
    auto first = executor.run(programs[0]);
    EXPECT_TRUE(corpus.maybeAdd(programs[0], first, 1));
    // Re-adding the identical program: no new edges.
    EXPECT_FALSE(corpus.maybeAdd(programs[0], first, 2));
    EXPECT_EQ(corpus.size(), 1u);
    // Coverage total reflects all merges regardless of admission.
    EXPECT_EQ(corpus.edgeCount(), first.coverage.edgeCount());
}

TEST(Corpus, DenseTotalMatchesSetUnion)
{
    // A synthetic 48-block topology (every fifth block returns) and
    // random traces that mostly follow it, with stray transitions and
    // ids past the successor table mixed in. Per result, the dense
    // total's growth and running counts must equal a std::set union;
    // with no topology the corpus must agree too.
    constexpr uint32_t kBlocks = 48;
    std::vector<kern::StaticSuccessors> succ(kBlocks);
    for (uint32_t b = 0; b < kBlocks; ++b) {
        if (b % 5 == 4)
            continue;
        succ[b].taken = (b + 1) % kBlocks;
        if (b % 3 != 0)
            succ[b].fallthrough = (b + 7) % kBlocks;
    }
    Corpus dense(1, obs::Registry::global(), succ);
    Corpus sideset;
    std::set<uint32_t> union_blocks;
    std::set<uint64_t> union_edges;
    Rng rng(77);
    prog::Prog program;
    for (uint64_t exec = 1; exec <= 400; ++exec) {
        // One result: its blocks and edges deduplicated at first visit.
        std::set<uint32_t> seen_blocks;
        std::set<uint64_t> seen_edges;
        std::vector<uint32_t> blocks;
        std::vector<uint64_t> edges;
        for (int call = 0; call < 3; ++call) {
            std::vector<uint32_t> trace;
            uint32_t at = static_cast<uint32_t>(rng.below(kBlocks));
            trace.push_back(at);
            for (int step = 0; step < 10; ++step) {
                const uint64_t roll = rng.below(10);
                if (roll < 5 && succ[at].taken != kern::kNoBlock)
                    at = succ[at].taken;
                else if (roll < 8 && succ[at].fallthrough != kern::kNoBlock)
                    at = succ[at].fallthrough;
                else  // stray transition
                    at = static_cast<uint32_t>(rng.below(kBlocks));
                trace.push_back(at);
            }
            if (rng.chance(0.15))
                trace.push_back(kBlocks + static_cast<uint32_t>(rng.below(4)));
            for (size_t i = 0; i < trace.size(); ++i) {
                if (seen_blocks.insert(trace[i]).second)
                    blocks.push_back(trace[i]);
                if (i + 1 == trace.size())
                    continue;
                const uint64_t key = exec::edgeKey(trace[i], trace[i + 1]);
                if (seen_edges.insert(key).second)
                    edges.push_back(key);
            }
        }
        size_t want_blocks = 0, want_edges = 0;
        for (uint32_t b : blocks)
            want_blocks += union_blocks.insert(b).second;
        for (uint64_t e : edges)
            want_edges += union_edges.insert(e).second;

        exec::ExecResult result;
        result.coverage =
            exec::CoverageSet(std::move(blocks), std::move(edges));
        for (Corpus *corpus : {&dense, &sideset}) {
            size_t new_edges = 0, new_blocks = 0;
            corpus->maybeAdd(program, result, exec, &new_edges,
                             &new_blocks);
            EXPECT_EQ(new_edges, want_edges) << "exec " << exec;
            EXPECT_EQ(new_blocks, want_blocks) << "exec " << exec;
            EXPECT_EQ(corpus->edgeCount(), union_edges.size());
            EXPECT_EQ(corpus->blockCount(), union_blocks.size());
        }
    }
    for (uint32_t b = 0; b < kBlocks + 8; ++b) {
        EXPECT_EQ(dense.coversBlock(b), union_blocks.count(b) != 0) << b;
        EXPECT_EQ(sideset.coversBlock(b), union_blocks.count(b) != 0)
            << b;
    }
    EXPECT_GT(union_blocks.size(), kBlocks);  // side set exercised
}

TEST(Corpus, PickCoversWholeCorpus)
{
    const auto &kernel = testKernel();
    exec::Executor executor(kernel);
    Rng rng(2);
    Corpus corpus;
    auto programs = prog::generateCorpus(rng, kernel.table(), 30);
    uint64_t counter = 0;
    for (const auto &program : programs)
        corpus.maybeAdd(program, executor.run(program), ++counter);
    ASSERT_GE(corpus.size(), 5u);

    std::unordered_set<uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(corpus.pick(rng).content_hash);
    EXPECT_GT(seen.size(), corpus.size() / 2);
}

TEST(CrashLog, DedupsByBugSite)
{
    const auto &kernel = testKernel();
    CrashLog log(kernel);
    prog::Prog dummy;
    log.record(0, dummy, 10);
    log.record(0, dummy, 20);
    log.record(1, dummy, 30);
    EXPECT_EQ(log.uniqueCrashes(), 2u);
    EXPECT_EQ(log.records()[0].hit_count, 2u);
    EXPECT_EQ(log.records()[0].first_seen_exec, 10u);
}

TEST(CrashLog, TalliesKnownVersusNew)
{
    const auto &kernel = testKernel();
    // Find one known and one new bug index.
    int known_index = -1, new_index = -1;
    for (size_t i = 0; i < kernel.bugs().size(); ++i) {
        if (kernel.bugs()[i].known && known_index < 0)
            known_index = static_cast<int>(i);
        if (!kernel.bugs()[i].known && new_index < 0)
            new_index = static_cast<int>(i);
    }
    ASSERT_GE(known_index, 0);
    ASSERT_GE(new_index, 0);

    CrashLog log(kernel);
    prog::Prog dummy;
    log.record(static_cast<uint32_t>(known_index), dummy, 1);
    log.record(static_cast<uint32_t>(new_index), dummy, 2);
    EXPECT_EQ(log.knownCrashes(), 1u);
    EXPECT_EQ(log.newCrashes(), 1u);
}

TEST(CrashLog, ReproducesDeterministicCrashAndMinimizes)
{
    const auto &kernel = testKernel();
    const auto *open_scsi = kernel.table().find("open$scsi");
    const auto *ioctl = kernel.table().find("ioctl$scsi");
    const auto *noise = kernel.table().find("socket");

    prog::Prog trigger;
    // Unrelated preamble that minimization should strip.
    prog::Call noise_call;
    noise_call.decl = noise;
    noise_call.args = prog::defaultArgs(*noise);
    prog::fixupLengths(noise_call);
    trigger.calls.push_back(std::move(noise_call));

    prog::Call open_call;
    open_call.decl = open_scsi;
    open_call.args = prog::defaultArgs(*open_scsi);
    prog::fixupLengths(open_call);
    trigger.calls.push_back(std::move(open_call));

    prog::Call ioctl_call;
    ioctl_call.decl = ioctl;
    ioctl_call.args = prog::defaultArgs(*ioctl);
    ioctl_call.args[0]->result_ref = 1;
    ioctl_call.args[1]->scalar = kern::kScsiIoctlSendCommand;
    auto &req = *ioctl_call.args[2]->pointee;
    req.fields[0]->scalar = kern::kScsiProtoAta16;
    req.fields[1]->scalar = kern::kAtaCmdNop;
    req.fields[2]->scalar = kern::kAtaProtPio;
    req.fields[3]->scalar = kern::kAtaMaxDataLen + 1;
    prog::fixupLengths(ioctl_call);
    trigger.calls.push_back(std::move(ioctl_call));

    // Confirm it crashes, find the bug index.
    exec::Executor executor(kernel);
    auto result = executor.run(trigger);
    ASSERT_TRUE(result.crashed);

    CrashLog log(kernel);
    log.record(result.bug_index, trigger, 42);
    log.reproduceAll();
    const auto &record = log.records()[0];
    EXPECT_TRUE(record.reproduced);
    // Minimization strips the socket preamble: 2 calls suffice.
    EXPECT_EQ(record.reproducer.calls.size(), 2u);
    EXPECT_EQ(record.reproducer.calls[1].decl->name, "ioctl$scsi");
}

CampaignOptions
oneWorker(uint64_t budget, size_t seed_corpus, uint64_t seed)
{
    CampaignOptions opts;
    opts.fuzz.exec_budget = budget;
    opts.fuzz.seed_corpus_size = seed_corpus;
    opts.fuzz.seed = seed;
    return opts;
}

TEST(CampaignEngine, MakesProgressWithinBudget)
{
    const auto &kernel = testKernel();
    auto opts = oneWorker(3000, 20, 9);
    opts.fuzz.checkpoint_every = 500;
    auto report = core::makeSyzkallerCampaign(kernel, opts)->run();

    EXPECT_EQ(report.execs, opts.fuzz.exec_budget);
    EXPECT_GT(report.final_edges, 100u);
    EXPECT_GE(report.corpus_size, 10u);
    ASSERT_GE(report.timeline.size(), 2u);
    // Coverage is monotone along the timeline.
    for (size_t i = 1; i < report.timeline.size(); ++i) {
        EXPECT_GE(report.timeline[i].edges,
                  report.timeline[i - 1].edges);
    }
    // Coverage keeps growing after the seed phase.
    EXPECT_GT(report.final_edges, report.timeline.front().edges);
}

TEST(CampaignEngine, DifferentSeedsExploreDifferently)
{
    const auto &kernel = testKernel();
    auto a = core::makeSyzkallerCampaign(kernel, oneWorker(1500, 15, 1))
                 ->run();
    auto b = core::makeSyzkallerCampaign(kernel, oneWorker(1500, 15, 2))
                 ->run();
    EXPECT_NE(a.final_edges, b.final_edges);
}

TEST(CampaignEngine, RunUntilStopsEarly)
{
    const auto &kernel = testKernel();
    auto engine =
        core::makeSyzkallerCampaign(kernel, oneWorker(100000, 10, 3));
    auto report = engine->runUntil(
        [](const CampaignEngine &e) { return e.execs() >= 700; });
    EXPECT_LT(report.execs, 2000u);
    EXPECT_GE(report.execs, 700u);
    EXPECT_EQ(engine->execs(), report.execs);
}

TEST(CampaignEngine, FindsShallowCrashes)
{
    const auto &kernel = testKernel();
    auto engine =
        core::makeSyzkallerCampaign(kernel, oneWorker(8000, 30, 12));
    engine->run();
    EXPECT_GT(engine->crashes().uniqueCrashes(), 0u);
}

TEST(CampaignEngineDeathTest, SecondRunIsRejected)
{
    const auto &kernel = testKernel();
    auto engine =
        core::makeSyzkallerCampaign(kernel, oneWorker(300, 5, 4));
    engine->run();
    const CampaignEngine::StopPredicate stop_now =
        [](const CampaignEngine &) { return true; };
    EXPECT_DEATH(engine->run(), "ran_");
    EXPECT_DEATH(engine->runUntil(stop_now), "ran_");
}

TEST(CampaignEngineDeathTest, StopPredicateNeedsOneWorker)
{
    const auto &kernel = testKernel();
    auto opts = oneWorker(300, 5, 4);
    opts.workers = 2;
    auto engine = core::makeSyzkallerCampaign(kernel, opts);
    const CampaignEngine::StopPredicate never =
        [](const CampaignEngine &) { return false; };
    EXPECT_DEATH(engine->runUntil(never), "workers == 1");
}

}  // namespace
}  // namespace sp::fuzz
