// Tests for coverage cartography's hot half (obs/covmap.h): plan
// geometry, wait-free shard recording, merge-order independence of the
// folded map, frontier ranking, the campaign integration (hit totals,
// metric hygiene, workers=1 repeatability), the record/merge data-race
// contract under TSan, and the /coverage status endpoint.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/campaign.h"
#include "kernel/subsystems.h"
#include "mutate/localizer.h"
#include "obs/covmap.h"
#include "obs/metrics.h"
#include "obs/statusd.h"
#include "obs/trace.h"

namespace sp::obs {
namespace {

using Edge = std::pair<uint32_t, uint32_t>;

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

/**
 * A 6-block diamond CFG with a dead branch:
 *
 *     0 -> 1 -> 3 -> 5
 *     0 -> 2 -> 3
 *     1 -> 4            (4 is never executed below)
 */
CovMapPlan
diamondPlan()
{
    return CovMapPlan::build(
        6, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 5}, {1, 4}});
}

TEST(CovMapPlan, BuildDedupesAndIndexesEdges)
{
    auto plan = CovMapPlan::build(4, {{0, 1}, {1, 2}, {0, 1}, {1, 3}});
    EXPECT_EQ(plan.num_blocks, 4u);
    EXPECT_EQ(plan.numEdges(), 3u);  // duplicate (0,1) folded

    // Dense ids cover each unique edge exactly once.
    const uint32_t e01 = plan.edgeIndex(0, 1);
    const uint32_t e12 = plan.edgeIndex(1, 2);
    const uint32_t e13 = plan.edgeIndex(1, 3);
    EXPECT_NE(e01, CovMapPlan::kNone);
    EXPECT_NE(e12, CovMapPlan::kNone);
    EXPECT_NE(e13, CovMapPlan::kNone);
    EXPECT_NE(e12, e13);
    EXPECT_EQ(plan.edgeIndex(2, 0), CovMapPlan::kNone);
    EXPECT_EQ(plan.edgeIndex(3, 1), CovMapPlan::kNone);

    // Successor slots mirror the edge set, kNone-padded.
    EXPECT_EQ(plan.succ[0][0], 1u);
    EXPECT_EQ(plan.succ[0][1], CovMapPlan::kNone);
    EXPECT_EQ(plan.succ_edge[0][0], e01);
    EXPECT_EQ(plan.succ[1][0], 2u);
    EXPECT_EQ(plan.succ[1][1], 3u);
    EXPECT_EQ(plan.succ[3][0], CovMapPlan::kNone);
}

TEST(CovShard, RecordsBlocksEdgesAndStrays)
{
    CovMap map(diamondPlan(), /*workers=*/1);
    CovShard &shard = map.shard(0);

    shard.recordTrace({0, 1, 3, 5});
    shard.recordTrace({0, 2, 3, 5});
    shard.recordTrace({0, 1, 3, 5});

    EXPECT_EQ(shard.blockHits(0), 3u);
    EXPECT_EQ(shard.blockHits(1), 2u);
    EXPECT_EQ(shard.blockHits(2), 1u);
    EXPECT_EQ(shard.blockHits(3), 3u);
    EXPECT_EQ(shard.blockHits(4), 0u);
    EXPECT_EQ(shard.blockHits(5), 3u);

    const auto &plan = map.plan();
    EXPECT_EQ(shard.edgeHits(plan.edgeIndex(0, 1)), 2u);
    EXPECT_EQ(shard.edgeHits(plan.edgeIndex(0, 2)), 1u);
    EXPECT_EQ(shard.edgeHits(plan.edgeIndex(3, 5)), 3u);
    EXPECT_EQ(shard.edgeHits(plan.edgeIndex(1, 4)), 0u);
    EXPECT_EQ(shard.strayEdges(), 0u);

    // A transition outside the static CFG tallies as stray, and
    // out-of-range blocks are ignored rather than written.
    shard.recordTrace({5, 0});
    EXPECT_EQ(shard.strayEdges(), 1u);
    shard.recordTrace({99});
    EXPECT_EQ(shard.blockHits(5), 4u);
}

TEST(CovMap, MergeIsIndependentOfShardInterleaving)
{
    // The same multiset of traces recorded on one shard vs spread
    // round-robin over four shards must fold to the identical map —
    // the property that makes worker count irrelevant to the report.
    std::vector<std::vector<uint32_t>> traces;
    for (int i = 0; i < 40; ++i) {
        if (i % 3 == 0)
            traces.push_back({0, 2, 3, 5});
        else
            traces.push_back({0, 1, 3, 5});
    }

    CovMap one(diamondPlan(), 1);
    for (const auto &t : traces)
        one.shard(0).recordTrace(t);

    CovMap four(diamondPlan(), 4);
    for (size_t i = 0; i < traces.size(); ++i)
        four.shard(i % 4).recordTrace(traces[i]);

    EXPECT_EQ(one.mergedBlockHits(), four.mergedBlockHits());
    EXPECT_EQ(one.mergedEdgeHits(), four.mergedEdgeHits());

    const auto fa = one.frontierTargets();
    const auto fb = four.frontierTargets();
    ASSERT_EQ(fa.size(), fb.size());
    for (size_t i = 0; i < fa.size(); ++i) {
        EXPECT_EQ(fa[i].target, fb[i].target);
        EXPECT_EQ(fa[i].guard, fb[i].guard);
        EXPECT_EQ(fa[i].guard_hits, fb[i].guard_hits);
    }
}

TEST(Frontier, RanksByGuardHitsThenTargetId)
{
    // Two guards with unreached successors; 1 is hotter than 6.
    //   1 -> {2 unreached, 3 reached}
    //   6 -> {7 unreached, 8 unreached}
    //   4 -> 5 (single successor: never a frontier guard)
    auto plan = CovMapPlan::build(
        9, {{1, 2}, {1, 3}, {6, 7}, {6, 8}, {4, 5}});
    std::vector<uint64_t> hits(9, 0);
    hits[1] = 50;
    hits[3] = 10;
    hits[6] = 5;
    hits[4] = 99;  // hot single-successor guard, 5 unreached

    auto frontier = computeFrontier(plan, hits, /*cap=*/0);
    ASSERT_EQ(frontier.size(), 3u);
    EXPECT_EQ(frontier[0].target, 2u);
    EXPECT_EQ(frontier[0].guard, 1u);
    EXPECT_EQ(frontier[0].guard_hits, 50u);
    // Tie on guard 6: target id ascending.
    EXPECT_EQ(frontier[1].target, 7u);
    EXPECT_EQ(frontier[2].target, 8u);

    auto capped = computeFrontier(plan, hits, /*cap=*/1);
    ASSERT_EQ(capped.size(), 1u);
    EXPECT_EQ(capped[0].target, 2u);

    // Crossing the branch retires its frontier entries.
    hits[7] = 1;
    hits[8] = 1;
    frontier = computeFrontier(plan, hits, 0);
    ASSERT_EQ(frontier.size(), 1u);
    EXPECT_EQ(frontier[0].target, 2u);
}

TEST(CovMap, SummaryAndJsonReflectMerges)
{
    CovMap map(diamondPlan(), 1);
    Registry metrics;
    map.shard(0).recordTrace({0, 1, 3, 5});
    map.onCheckpoint(/*execs=*/100, metrics);

    auto summary = map.summary();
    EXPECT_EQ(summary.execs, 100u);
    EXPECT_EQ(summary.windows, 1u);
    EXPECT_EQ(summary.blocks_hit, 4u);
    EXPECT_EQ(summary.edges_hit, 3u);
    EXPECT_EQ(summary.total_block_hits, 4u);
    // Unreached: 2 (guarded by 0) and 4 (guarded by 1).
    EXPECT_EQ(summary.frontier_size, 2u);
    ASSERT_EQ(summary.top_frontier.size(), 2u);

    const std::string json = map.summaryJson();
    EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
    EXPECT_NE(json.find("\"execs\":100"), std::string::npos);
    EXPECT_NE(json.find("\"blocks_hit\":4"), std::string::npos);
    EXPECT_NE(json.find("\"frontier\":["), std::string::npos);

    EXPECT_GT(map.residentBytes(), 0u);

    map.finalize(150, metrics);
    map.finalize(150, metrics);  // idempotent
    EXPECT_EQ(map.summary().windows, 2u);
    EXPECT_EQ(metrics.counter("covmap.windows").value(), 2u);
}

TEST(CovMap, RecordAndMergeAreRaceFree)
{
    // Three writers hammer their own shards while the "checkpoint
    // owner" merges repeatedly. Run under TSan this exercises the
    // relaxed single-writer / merge-reader contract.
    CovMap map(diamondPlan(), 3);
    Registry metrics;
    std::vector<std::thread> writers;
    for (size_t w = 0; w < 3; ++w) {
        writers.emplace_back([&map, w] {
            CovShard &shard = map.shard(w);
            for (int i = 0; i < 2000; ++i)
                shard.recordTrace({0, 1, 3, 5});
        });
    }
    for (int merge = 1; merge <= 20; ++merge)
        map.onCheckpoint(static_cast<uint64_t>(merge) * 100, metrics);
    for (auto &t : writers)
        t.join();
    map.finalize(3000, metrics);

    const auto blocks = map.mergedBlockHits();
    EXPECT_EQ(blocks[0], 6000u);
    EXPECT_EQ(blocks[5], 6000u);
}

fuzz::CampaignOptions
smallCampaign(size_t workers, uint64_t seed)
{
    fuzz::CampaignOptions opts;
    opts.workers = workers;
    opts.fuzz.exec_budget = 1500;
    opts.fuzz.seed = seed;
    opts.fuzz.seed_corpus_size = 20;
    opts.fuzz.checkpoint_every = 250;
    return opts;
}

fuzz::CampaignEngine::LocalizerFactory
randomLocalizers()
{
    return [](size_t) { return std::make_unique<mut::RandomLocalizer>(); };
}

std::vector<uint64_t>
campaignBlockHits(size_t workers, uint64_t seed)
{
    const auto &kernel = testKernel();
    CovMap map(CovMapPlan::build(kernel.blocks().size(),
                                 kernel.staticEdges()),
               workers);
    auto opts = smallCampaign(workers, seed);
    opts.fuzz.covmap = &map;
    fuzz::CampaignEngine engine(kernel, opts, randomLocalizers());
    engine.run();  // finalizes the covmap
    EXPECT_GT(map.summary().windows, 1u);
    return map.mergedBlockHits();
}

TEST(CovMapCampaign, AccumulatesHitsAndIsRepeatableSingleWorker)
{
    const auto a = campaignBlockHits(1, 11);
    const auto b = campaignBlockHits(1, 11);
    EXPECT_EQ(a, b);

    uint64_t total = 0;
    size_t reached = 0;
    for (uint64_t h : a) {
        total += h;
        reached += (h != 0);
    }
    // Every exec walks several blocks; totals dwarf the exec budget.
    EXPECT_GT(total, 1500u);
    EXPECT_GT(reached, 0u);
    EXPECT_LT(reached, a.size());  // a short run can't reach everything
}

TEST(CovMapCampaign, CovmapCountersCountOneCampaign)
{
    // Back-to-back campaigns in one process: each campaign's registry
    // holds exactly its own covmap.* counts, nothing from the first.
    const auto &kernel = testKernel();
    for (const uint64_t seed : {21, 22}) {
        CovMap map(CovMapPlan::build(kernel.blocks().size(),
                                     kernel.staticEdges()),
                   1);
        auto opts = smallCampaign(1, seed);
        opts.fuzz.covmap = &map;
        fuzz::CampaignEngine engine(kernel, opts, randomLocalizers());
        engine.run();
        // Six grid windows plus the run's final one.
        EXPECT_EQ(map.summary().windows, 7u);
        EXPECT_EQ(engine.metrics().counter("covmap.windows").value(),
                  map.summary().windows);
    }
}

/** Minimal HTTP GET against 127.0.0.1:port; returns the raw reply. */
std::string
httpGet(uint16_t port, const std::string &path)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::string reply;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        reply.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return reply;
}

TEST(CoverageEndpoint, ServesProviderJsonAndDisabledDefault)
{
    setCoverageProvider(nullptr);
    EXPECT_EQ(coverageJson(), "{\"enabled\":false}");

    CovMap map(diamondPlan(), 1);
    Registry metrics;
    map.shard(0).recordTrace({0, 1, 3, 5});
    map.onCheckpoint(42, metrics);
    setCoverageProvider([&map] { return map.summaryJson(); });

    StatusServer server(0);
    ASSERT_NE(server.port(), 0u);
    const std::string reply = httpGet(server.port(), "/coverage");
    EXPECT_NE(reply.find("200 OK"), std::string::npos);
    EXPECT_NE(reply.find("\"enabled\":true"), std::string::npos);
    EXPECT_NE(reply.find("\"execs\":42"), std::string::npos);

    setCoverageProvider(nullptr);
    const std::string off = httpGet(server.port(), "/coverage");
    EXPECT_NE(off.find("\"enabled\":false"), std::string::npos);
}

}  // namespace
}  // namespace sp::obs
