// Tests for the offline half of coverage cartography (src/analysis):
// the snapshot-log round trip back into a CovProfile, heat-band
// percentiles, subsystem attribution, the analyze report JSON and its
// --directed-from target round trip, and the end-to-end acceptance
// property: cold-frontier targets mined from an undirected campaign
// steer Snowplow-D to blocks that campaign never reached.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/frontier.h"
#include "analysis/report.h"
#include "core/directed.h"
#include "core/pmm.h"
#include "fuzz/campaign.h"
#include "kernel/subsystems.h"
#include "mutate/localizer.h"
#include "util/json.h"

namespace sp::analysis {
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

std::string
tempPath(const char *tag)
{
    std::string path = std::string("/tmp/sp_analysis_") + tag + "_XXXXXX";
    std::vector<char> buf(path.begin(), path.end());
    buf.push_back('\0');
    const int fd = mkstemp(buf.data());
    EXPECT_GE(fd, 0);
    if (fd >= 0)
        ::close(fd);
    return buf.data();
}

TEST(CovProfile, LogRoundTripMatchesMergedMap)
{
    // Diamond CFG: 0->1->3->5, 0->2->3, 1->4 (4 stays unreached).
    auto plan = obs::CovMapPlan::build(
        6, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 5}, {1, 4}});
    obs::CovMap map(std::move(plan), /*workers=*/2);
    obs::Registry metrics;

    const std::string path = tempPath("roundtrip");
    ASSERT_TRUE(map.openLog(path, "\"kernel\":{\"seed\":6}"));

    map.shard(0).recordTrace({0, 1, 3, 5});
    map.shard(1).recordTrace({0, 2, 3, 5});
    map.onCheckpoint(250, metrics);
    map.shard(0).recordTrace({0, 1, 3, 5});
    map.shard(0).recordTrace({5, 0});  // one stray transition
    map.onCheckpoint(500, metrics);
    map.shard(1).recordTrace({0, 1, 3, 5});
    map.finalize(600, metrics);

    auto profile = CovProfile::load(path);
    ASSERT_TRUE(profile.ok()) << profile.error;
    EXPECT_EQ(profile.num_blocks, 6u);
    EXPECT_EQ(profile.edges.size(), map.plan().numEdges());
    EXPECT_EQ(profile.execs, 600u);
    // Two checkpoints plus the finalize tail window.
    EXPECT_EQ(profile.windows.size(), 3u);
    EXPECT_EQ(profile.stray_edges, 1u);

    // Delta reconstruction is exact: the profile equals the live map.
    EXPECT_EQ(profile.block_hits, map.mergedBlockHits());
    EXPECT_EQ(profile.edge_hits, map.mergedEdgeHits());

    // The spliced campaign header survives the round trip.
    const json::Value *kernel_obj = profile.header.find("kernel");
    ASSERT_NE(kernel_obj, nullptr);
    const json::Value *seed = kernel_obj->find("seed");
    ASSERT_NE(seed, nullptr);
    EXPECT_EQ(seed->asUint(), 6u);

    // The tail window carries the hits recorded after checkpoint 500.
    EXPECT_EQ(profile.windows.back().execs, 600u);
    EXPECT_GT(profile.windows.back().block_hit_delta, 0u);

    std::remove(path.c_str());
}

TEST(CovProfile, LoadReportsMissingAndMalformedFiles)
{
    auto missing = CovProfile::load("/nonexistent/covmap.jsonl");
    EXPECT_FALSE(missing.ok());
    EXPECT_FALSE(missing.error.empty());

    const std::string path = tempPath("badheader");
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"type\":\"not_a_covmap\"}\n", f);
    std::fclose(f);
    auto bad = CovProfile::load(path);
    EXPECT_FALSE(bad.ok());
    std::remove(path.c_str());
}

TEST(Heat, NearestRankThresholdsAndBands)
{
    // 10 reached blocks, hits 10..100: p10 -> 10, p90 -> 90.
    std::vector<uint64_t> hits;
    for (uint64_t h = 10; h <= 100; h += 10)
        hits.push_back(h);
    hits.push_back(0);  // unreached entries are excluded
    auto t = heatThresholds(hits);
    EXPECT_EQ(t.cold_max, 10u);
    EXPECT_EQ(t.hot_min, 90u);

    EXPECT_EQ(heatOf(0, t), Heat::Unreached);
    EXPECT_EQ(heatOf(10, t), Heat::Cold);
    EXPECT_EQ(heatOf(11, t), Heat::Warm);
    EXPECT_EQ(heatOf(89, t), Heat::Warm);
    EXPECT_EQ(heatOf(90, t), Heat::Hot);
    EXPECT_EQ(heatOf(300, t), Heat::Hot);

    EXPECT_STREQ(heatName(Heat::Unreached), "unreached");
    EXPECT_STREQ(heatName(Heat::Hot), "hot");

    // Degenerate cases: empty and uniform maps.
    auto empty = heatThresholds({0, 0});
    EXPECT_EQ(heatOf(0, empty), Heat::Unreached);
    auto uniform = heatThresholds({7, 7, 7});
    EXPECT_EQ(uniform.cold_max, 7u);
    EXPECT_EQ(uniform.hot_min, 7u);
    EXPECT_EQ(heatOf(7, uniform), Heat::Hot);  // hot wins ties
}

TEST(Subsystem, NamesFollowVariantRules)
{
    EXPECT_EQ(subsystemOfSyscall("ioctl$scsi"), "scsi");
    EXPECT_EQ(subsystemOfSyscall("sys3$open_res1"), "res1");
    EXPECT_EQ(subsystemOfSyscall("sys9$use_res1"), "res1");
    EXPECT_EQ(subsystemOfSyscall("sys4$close_res2"), "res2");
    EXPECT_EQ(subsystemOfSyscall("read"), "read");

    const auto &kernel = testKernel();
    const auto by_block = blockSubsystems(kernel);
    ASSERT_EQ(by_block.size(), kernel.blocks().size());
    for (const auto &name : by_block)
        EXPECT_FALSE(name.empty());
}

/** Run a short undirected campaign with a covmap log attached. */
std::string
runProfiledCampaign(uint64_t seed, uint64_t budget)
{
    const auto &kernel = testKernel();
    obs::CovMap map(obs::CovMapPlan::build(kernel.blocks().size(),
                                           kernel.staticEdges()),
                    /*workers=*/1);
    const std::string path = tempPath("campaign");
    EXPECT_TRUE(map.openLog(path, "\"kernel\":{\"seed\":6}"));

    fuzz::CampaignOptions opts;
    opts.workers = 1;
    opts.fuzz.exec_budget = budget;
    opts.fuzz.seed = seed;
    opts.fuzz.seed_corpus_size = 20;
    opts.fuzz.checkpoint_every = 250;
    opts.fuzz.covmap = &map;
    fuzz::CampaignEngine engine(kernel, opts, [](size_t) {
        return std::make_unique<mut::RandomLocalizer>();
    });
    engine.run();  // finalizes the covmap log
    return path;
}

TEST(Report, JsonParsesAndTargetsRoundTrip)
{
    const std::string log_path = runProfiledCampaign(5, 1500);
    auto profile = CovProfile::load(log_path);
    ASSERT_TRUE(profile.ok()) << profile.error;

    const auto &kernel = testKernel();
    auto analysis = analyze(std::move(profile), &kernel,
                            /*target_cap=*/16);
    EXPECT_FALSE(analysis.targets.empty());
    EXPECT_FALSE(analysis.subsystems.empty());
    // Band counts partition the block set.
    size_t banded = 0;
    for (size_t count : analysis.band_counts)
        banded += count;
    EXPECT_EQ(banded, analysis.profile.num_blocks);

    const std::string json = reportJson(analysis, log_path);
    auto parsed = json::parse(json);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.value.find("type")->str(), "covmap_report");
    EXPECT_EQ(parsed.value.find("version")->asUint(), 1u);
    ASSERT_NE(parsed.value.find("targets"), nullptr);
    EXPECT_EQ(parsed.value.find("targets")->array().size(),
              analysis.targets.size());
    ASSERT_NE(parsed.value.find("heat"), nullptr);
    ASSERT_NE(parsed.value.find("subsystems"), nullptr);
    ASSERT_NE(parsed.value.find("timeline"), nullptr);

    // The human report mentions every subsystem group.
    const std::string text = reportText(analysis, log_path);
    EXPECT_NE(text.find(analysis.subsystems.front().name),
              std::string::npos);

    // reportJson -> loadTargets preserves the ranked block list.
    const std::string report_path = tempPath("report");
    std::FILE *f = std::fopen(report_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::string error;
    const auto targets = loadTargets(report_path, &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(targets.size(), analysis.targets.size());
    for (size_t i = 0; i < targets.size(); ++i)
        EXPECT_EQ(targets[i], analysis.targets[i].target);

    std::remove(log_path.c_str());
    std::remove(report_path.c_str());
}

TEST(Report, LoadTargetsRejectsNonReports)
{
    std::string error;
    EXPECT_TRUE(loadTargets("/nonexistent/report.json", &error).empty());
    EXPECT_FALSE(error.empty());

    const std::string path = tempPath("notareport");
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"type\":\"something_else\"}", f);
    std::fclose(f);
    error.clear();
    EXPECT_TRUE(loadTargets(path, &error).empty());
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());
}

TEST(DirectedFromFrontier, ReachesTargetsTheUndirectedRunMissed)
{
    // The acceptance property behind `fuzz --covmap-out` ->
    // `analyze` -> `fuzz --directed-from`: mine the cold frontier of
    // an undirected run, then let Snowplow-D chase those exact blocks.
    const std::string log_path = runProfiledCampaign(9, 1500);
    auto profile = CovProfile::load(log_path);
    ASSERT_TRUE(profile.ok()) << profile.error;
    std::remove(log_path.c_str());

    const auto &kernel = testKernel();
    auto analysis = analyze(std::move(profile), &kernel, 16);
    ASSERT_FALSE(analysis.targets.empty());

    std::vector<uint32_t> targets;
    for (const auto &t : analysis.targets) {
        // Frontier targets are unreached by construction.
        EXPECT_EQ(analysis.profile.block_hits[t.target], 0u);
        targets.push_back(t.target);
    }

    core::Pmm model;  // deterministic default-initialized weights
    core::DirectedOptions opts;
    opts.exec_budget = 20000;
    opts.seed = 13;
    auto result = core::runSnowplowD(kernel, model, targets, opts);
    EXPECT_GE(result.reached.size(), 1u);
    EXPECT_GT(result.execs_total, 0u);

    // Everything reported reached really is in the target set.
    std::unordered_set<uint32_t> wanted(targets.begin(), targets.end());
    for (uint32_t block : result.reached)
        EXPECT_EQ(wanted.count(block), 1u);
}

}  // namespace
}  // namespace sp::analysis
