// Tests for the src/data subsystem: the framed shard format and its
// crash-truncation semantics, the sharded example store (round-trip,
// dedup, merge/compaction with the popularity cap and the
// split-by-base invariant), the streaming loader's bit-identical
// training parity with the in-memory source, resumable training, and
// the campaign harvester.

#include <gtest/gtest.h>

#include <cstdio>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/dataset.h"
#include "core/snowplow.h"
#include "core/train.h"
#include "data/format.h"
#include "data/harvest.h"
#include "data/loader.h"
#include "data/shard.h"
#include "data/store.h"
#include "fuzz/campaign.h"
#include "kernel/subsystems.h"
#include "prog/serialize.h"
#include "prog/validate.h"
#include "util/logging.h"

namespace sp::data {
namespace {

const kern::Kernel &
testKernel()
{
    static kern::Kernel kernel = [] {
        kern::KernelGenParams params;
        params.seed = 10;
        params.num_syscalls = 10;
        return kern::buildBaseKernel(params);
    }();
    return kernel;
}

const core::Dataset &
smallDataset()
{
    static core::Dataset dataset = [] {
        core::DatasetOptions opts;
        opts.corpus_size = 50;
        opts.mutations_per_base = 50;
        opts.seed = 3;
        return core::collectDataset(testKernel(), opts);
    }();
    return dataset;
}

/** Fresh scratch directory under the system tmpdir. */
std::string
scratchDir()
{
    char tmpl[] = "/tmp/sp_data_test_XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    SP_ASSERT(dir != nullptr, "mkdtemp failed");
    return dir;
}

std::vector<uint8_t>
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    SP_ASSERT(in.good(), "cannot open %s", path.c_str());
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

void
expectSameExamples(const std::vector<core::RawExample> &a,
                   const std::vector<core::RawExample> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].base_index, b[i].base_index) << i;
        EXPECT_EQ(a[i].targets, b[i].targets) << i;
        ASSERT_EQ(a[i].mutate_sites.size(), b[i].mutate_sites.size());
        for (size_t j = 0; j < a[i].mutate_sites.size(); ++j) {
            EXPECT_EQ(a[i].mutate_sites[j].call_index,
                      b[i].mutate_sites[j].call_index);
            EXPECT_EQ(a[i].mutate_sites[j].point.path,
                      b[i].mutate_sites[j].point.path);
        }
    }
}

TEST(Format, CrcMatchesKnownVectors)
{
    // IEEE CRC-32 of "123456789" is the classic check value.
    const char *check = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const uint8_t *>(check), 9),
              0xcbf43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Format, PayloadRoundTrip)
{
    PayloadWriter out;
    out.u8(7);
    out.u16(513);
    out.u32(0xdeadbeef);
    out.u64(0x0123456789abcdefull);
    out.str("snowplow");
    PayloadReader in(out.bytes().data(), out.bytes().size());
    EXPECT_EQ(in.u8(), 7u);
    EXPECT_EQ(in.u16(), 513u);
    EXPECT_EQ(in.u32(), 0xdeadbeefu);
    EXPECT_EQ(in.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(in.str(), "snowplow");
    EXPECT_EQ(in.remaining(), 0u);
}

TEST(Shard, WriteReadRoundTrip)
{
    const std::string dir = scratchDir();
    const std::string path = dir + "/round.spds";

    BaseRecord base;
    base.base_hash = 0x1122334455667788ull;
    base.text = "open(0x1)\nread(r0, 0x2)\n";
    base.blocks = {1, 5, 9};
    base.edges = 4;
    ExampleRecord example;
    example.base_hash = base.base_hash;
    example.split = kSplitValid;
    example.targets = {2, 3, 11};
    mut::ArgLocation site;
    site.call_index = 1;
    site.point.path = {0, 2};
    example.sites.push_back(site);

    {
        ShardWriter writer(path, 0xabcdull);
        EXPECT_GT(writer.append(base), 0u);
        EXPECT_GT(writer.append(example), 0u);
        writer.close();
        EXPECT_EQ(writer.index().bases, 1u);
        EXPECT_EQ(writer.index().valid, 1u);
    }

    ShardReader reader(path);
    EXPECT_EQ(reader.kernelFingerprint(), 0xabcdull);
    BaseRecord got_base;
    ExampleRecord got_example;
    bool is_base = false;
    ASSERT_TRUE(reader.next(got_base, got_example, is_base));
    ASSERT_TRUE(is_base);
    EXPECT_EQ(got_base.base_hash, base.base_hash);
    EXPECT_EQ(got_base.text, base.text);
    EXPECT_EQ(got_base.blocks, base.blocks);
    EXPECT_EQ(got_base.edges, base.edges);
    ASSERT_TRUE(reader.next(got_base, got_example, is_base));
    ASSERT_FALSE(is_base);
    EXPECT_EQ(got_example.base_hash, example.base_hash);
    EXPECT_EQ(got_example.split, kSplitValid);
    EXPECT_EQ(got_example.targets, example.targets);
    ASSERT_EQ(got_example.sites.size(), 1u);
    EXPECT_EQ(got_example.sites[0].call_index, 1u);
    EXPECT_EQ(got_example.sites[0].point.path,
              (std::vector<uint16_t>{0, 2}));
    EXPECT_FALSE(reader.next(got_base, got_example, is_base));
    EXPECT_FALSE(reader.truncated());

    // The sidecar index agrees with the scan.
    auto index = readShardIndex(path);
    ASSERT_TRUE(index.has_value());
    EXPECT_EQ(index->bases, 1u);
    EXPECT_EQ(index->examples(), 1u);
}

TEST(Shard, TruncatedShardReadsToLastValidRecord)
{
    const std::string dir = scratchDir();
    const std::string path = dir + "/torn.spds";
    std::vector<size_t> frame_sizes;
    size_t header_bytes = 0;

    {
        ShardWriter writer(path, 0x1ull);
        header_bytes = writer.bytesWritten();
        for (uint64_t i = 0; i < 8; ++i) {
            BaseRecord base;
            base.base_hash = i + 1;
            base.text = "text-" + std::to_string(i);
            base.blocks = {static_cast<uint32_t>(i)};
            base.edges = i;
            frame_sizes.push_back(writer.append(base));
            ExampleRecord example;
            example.base_hash = i + 1;
            example.targets = {static_cast<uint32_t>(i + 100)};
            mut::ArgLocation site;
            site.point.path = {0};
            example.sites.push_back(site);
            frame_sizes.push_back(writer.append(example));
        }
        writer.close();
    }

    // Cut the file mid-way through the final record, as a crash would.
    const auto bytes = fileBytes(path);
    const size_t torn = bytes.size() - frame_sizes.back() / 2;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(torn));
    }
    ASSERT_GT(torn, header_bytes);

    ShardReader reader(path);
    BaseRecord base;
    ExampleRecord example;
    bool is_base = false;
    size_t records = 0;
    while (reader.next(base, example, is_base))
        ++records;
    EXPECT_EQ(records, frame_sizes.size() - 1);
    EXPECT_TRUE(reader.truncated());

    // A corrupted (bit-flipped) record also stops the scan cleanly.
    auto flipped = bytes;
    flipped[bytes.size() - frame_sizes.back() + 9] ^= 0x40;
    const std::string flip_path = dir + "/flip.spds";
    {
        std::ofstream out(flip_path, std::ios::binary);
        out.write(reinterpret_cast<const char *>(flipped.data()),
                  static_cast<std::streamsize>(flipped.size()));
    }
    ShardReader flip_reader(flip_path);
    records = 0;
    while (flip_reader.next(base, example, is_base))
        ++records;
    EXPECT_EQ(records, frame_sizes.size() - 1);
    EXPECT_TRUE(flip_reader.truncated());
}

TEST(Dataset, CanonicalizeDedupesAndSortsTargets)
{
    auto site = [](size_t call, std::vector<uint16_t> path) {
        mut::ArgLocation loc;
        loc.call_index = call;
        loc.point.path = std::move(path);
        return loc;
    };
    core::RawExample example;
    example.targets = {9, 3, 9, 1, 3};
    example.mutate_sites.push_back(site(2, {1}));
    example.mutate_sites.push_back(site(0, {0, 1}));
    example.mutate_sites.push_back(site(2, {1}));
    example.canonicalize();
    EXPECT_EQ(example.targets, (std::vector<uint32_t>{1, 3, 9}));
    ASSERT_EQ(example.mutate_sites.size(), 2u);
    EXPECT_EQ(example.mutate_sites[0].call_index, 0u);
    EXPECT_EQ(example.mutate_sites[1].call_index, 2u);

    // exampleKey is insensitive to construction order.
    core::RawExample other;
    other.targets = {1, 9, 3, 1};
    other.mutate_sites.push_back(site(0, {0, 1}));
    other.mutate_sites.push_back(site(2, {1}));
    other.canonicalize();
    EXPECT_EQ(core::exampleKey(example, 42), core::exampleKey(other, 42));
    EXPECT_NE(core::exampleKey(example, 42), core::exampleKey(other, 43));
}

TEST(Store, SingleShardRoundTripPreservesDataset)
{
    const auto &dataset = smallDataset();
    const std::string dir = scratchDir();
    const auto paths = writeStore(dataset, dir, 1);
    ASSERT_EQ(paths.size(), 1u);

    bool truncated = true;
    const auto loaded = loadStore(testKernel(), paths, &truncated);
    EXPECT_FALSE(truncated);
    ASSERT_EQ(loaded.bases.size(), dataset.bases.size());
    for (size_t i = 0; i < dataset.bases.size(); ++i)
        EXPECT_EQ(prog::formatProg(loaded.bases[i]),
                  prog::formatProg(dataset.bases[i]))
            << i;
    // Deterministic re-execution restored the base coverage.
    ASSERT_EQ(loaded.base_results.size(), dataset.base_results.size());
    for (size_t i = 0; i < dataset.base_results.size(); ++i)
        EXPECT_EQ(loaded.base_results[i].coverage.edgeCount(),
                  dataset.base_results[i].coverage.edgeCount())
            << i;
    expectSameExamples(loaded.train, dataset.train);
    expectSameExamples(loaded.valid, dataset.valid);
    expectSameExamples(loaded.eval, dataset.eval);
}

TEST(Store, MultiShardLoadCoversAllAndDedupesBases)
{
    const auto &dataset = smallDataset();
    const std::string dir = scratchDir();
    const auto paths = writeStore(dataset, dir, 3);
    ASSERT_EQ(paths.size(), 3u);

    // Listing a shard twice must not duplicate bases or examples.
    auto doubled = paths;
    doubled.push_back(paths[0]);
    const auto loaded = loadStore(testKernel(), doubled);
    EXPECT_EQ(loaded.bases.size(), dataset.bases.size());
    EXPECT_EQ(loaded.train.size(), dataset.train.size());
    EXPECT_EQ(loaded.valid.size(), dataset.valid.size());
    EXPECT_EQ(loaded.eval.size(), dataset.eval.size());

    const auto stats = statStore(paths);
    EXPECT_EQ(stats.shards, 3u);
    EXPECT_EQ(stats.indexed_shards, 3u);
    EXPECT_EQ(stats.truncated_shards, 0u);
    EXPECT_EQ(stats.totals.bases, dataset.bases.size());
    EXPECT_EQ(stats.totals.examples(), dataset.train.size() +
                                           dataset.valid.size() +
                                           dataset.eval.size());
}

TEST(Store, LoadRejectsWrongKernel)
{
    const auto &dataset = smallDataset();
    const std::string dir = scratchDir();
    const auto paths = writeStore(dataset, dir, 1);

    kern::KernelGenParams params;
    params.seed = 99;
    params.num_syscalls = 12;
    const auto other = kern::buildBaseKernel(params);
    EXPECT_NE(kernelFingerprint(other), kernelFingerprint(testKernel()));
    EXPECT_DEATH(loadStore(other, paths), "fingerprint");
}

/**
 * A dataset base with one len field bumped past its buffer's size: its
 * text still parses, but validateProg rejects it (the state a mutated
 * or hand-edited stored text can reach).
 */
prog::Prog
baseWithBadLength()
{
    for (const auto &base : smallDataset().bases) {
        for (size_t c = 0; c < base.calls.size(); ++c) {
            std::vector<std::vector<uint16_t>> len_paths;
            prog::visitArgs(base.calls[c],
                            [&len_paths](const prog::Arg &arg,
                                         const std::vector<uint16_t> &at) {
                                if (arg.type->kind == prog::TypeKind::Len)
                                    len_paths.push_back(at);
                            });
            for (const auto &at : len_paths) {
                prog::Prog candidate;
                candidate.calls = base.calls;
                prog::argAtPath(candidate.calls[c], at).scalar += 1;
                if (prog::validateProg(candidate))
                    return candidate;
            }
        }
    }
    return {};
}

TEST(Store, LoadRejectsBaseFailingValidation)
{
    const auto &kernel = testKernel();
    const prog::Prog broken = baseWithBadLength();
    ASSERT_FALSE(broken.calls.empty());

    BaseRecord record;
    record.text = prog::formatProg(broken);
    auto parsed = prog::parseProg(record.text, kernel.table());
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(prog::validateProg(*parsed.prog).has_value());
    // Record the coverage it really produces, so only validation can
    // reject it.
    exec::Executor executor(kernel);
    const auto result = executor.run(*parsed.prog);
    record.base_hash = 0x5eedull;
    record.blocks.assign(result.coverage.blocks().begin(),
                         result.coverage.blocks().end());
    std::sort(record.blocks.begin(), record.blocks.end());
    record.edges = result.coverage.edgeCount();

    const std::string path = scratchDir() + "/invalid.spds";
    {
        ShardWriter writer(path, kernelFingerprint(kernel));
        writer.append(record);
        writer.close();
    }
    EXPECT_DEATH(loadStore(kernel, {path}), "violation");
}

TEST(Store, SplitOfBaseIsDeterministicAndProportional)
{
    Rng rng(5);
    size_t train = 0, valid = 0, eval = 0;
    for (int i = 0; i < 4000; ++i) {
        const uint64_t hash = rng.next();
        const uint8_t split = splitOfBase(hash, 7, 0.8);
        EXPECT_EQ(split, splitOfBase(hash, 7, 0.8));
        train += split == kSplitTrain;
        valid += split == kSplitValid;
        eval += split == kSplitEval;
    }
    EXPECT_GT(train, 2900u);
    EXPECT_LT(train, 3500u);
    EXPECT_GT(valid, 200u);
    EXPECT_GT(eval, 200u);
    // Different seeds roll different splits.
    size_t moved = 0;
    Rng rng2(5);
    for (int i = 0; i < 4000; ++i) {
        const uint64_t hash = rng2.next();
        moved += splitOfBase(hash, 7, 0.8) != splitOfBase(hash, 8, 0.8);
    }
    EXPECT_GT(moved, 500u);
}

TEST(Store, MergeDedupesAppliesCapAndKeepsSplitByBase)
{
    const auto &dataset = smallDataset();
    const std::string dir = scratchDir();
    const auto paths = writeStore(dataset, dir, 3);

    MergeOptions merge_opts;
    merge_opts.seed = 11;
    merge_opts.popularity_cap = 5;
    // Overlapping inputs: every shard once, plus one twice.
    auto inputs = paths;
    inputs.push_back(paths[1]);
    const auto merged_path = dir + "/merged.spds";
    const auto index = mergeStore(inputs, merged_path, merge_opts);
    EXPECT_GT(index.examples(), 0u);

    // Re-read the merged shard and check both §3.1 invariants.
    ShardReader reader(merged_path);
    BaseRecord base;
    ExampleRecord example;
    bool is_base = false;
    std::unordered_set<uint64_t> base_hashes;
    std::unordered_map<uint64_t, uint8_t> split_of;
    std::unordered_map<uint32_t, size_t> popularity;
    std::unordered_set<uint64_t> keys;
    uint64_t examples = 0;
    while (reader.next(base, example, is_base)) {
        if (is_base) {
            // Dedup: each base appears exactly once.
            EXPECT_TRUE(base_hashes.insert(base.base_hash).second);
            continue;
        }
        ++examples;
        // Base-before-example ordering within the shard.
        EXPECT_TRUE(base_hashes.count(example.base_hash));
        // Split-by-base: every example of a base shares its split,
        // and the split is the pure content-hash roll.
        auto [it, fresh] =
            split_of.emplace(example.base_hash, example.split);
        EXPECT_EQ(it->second, example.split);
        if (fresh) {
            EXPECT_EQ(example.split,
                      splitOfBase(example.base_hash, merge_opts.seed,
                                  merge_opts.train_fraction));
        }
        // Popularity cap over the merged output.
        for (uint32_t t : example.targets) {
            ++popularity[t];
            EXPECT_LE(popularity[t], merge_opts.popularity_cap) << t;
        }
        core::RawExample raw;
        raw.targets = example.targets;
        raw.mutate_sites = example.sites;
        raw.canonicalize();
        EXPECT_TRUE(
            keys.insert(core::exampleKey(raw, example.base_hash)).second);
    }
    EXPECT_FALSE(reader.truncated());
    EXPECT_EQ(examples, index.examples());
    EXPECT_EQ(base_hashes.size(), index.bases);

    // Merging the same inputs again is byte-identical, and
    // re-merging the merged shard keeps every record (idempotent
    // compaction: dedup and the cap find nothing more to drop).
    const auto again_path = dir + "/merged2.spds";
    mergeStore(inputs, again_path, merge_opts);
    EXPECT_EQ(fileBytes(merged_path), fileBytes(again_path));
    const auto recompact_path = dir + "/merged3.spds";
    const auto re_index =
        mergeStore({merged_path}, recompact_path, merge_opts);
    EXPECT_EQ(re_index.bases, index.bases);
    EXPECT_EQ(re_index.train, index.train);
    EXPECT_EQ(re_index.valid, index.valid);
    EXPECT_EQ(re_index.eval, index.eval);
}

TEST(Store, MergedStoreLoadsAndTrainsEndToEnd)
{
    const auto &dataset = smallDataset();
    const std::string dir = scratchDir();
    const auto paths = writeStore(dataset, dir, 2);
    const auto merged_path = dir + "/merged.spds";
    mergeStore(paths, merged_path);
    const auto loaded = loadStore(testKernel(), {merged_path});
    EXPECT_GT(loaded.train.size(), 0u);
    EXPECT_GT(loaded.bases.size(), 0u);
    for (const auto &example : loaded.train)
        ASSERT_LT(example.base_index, loaded.bases.size());
}

void
expectSameMetrics(const core::SelectorMetrics &a,
                  const core::SelectorMetrics &b)
{
    EXPECT_EQ(a.f1, b.f1);
    EXPECT_EQ(a.precision, b.precision);
    EXPECT_EQ(a.recall, b.recall);
    EXPECT_EQ(a.jaccard, b.jaccard);
    EXPECT_EQ(a.examples, b.examples);
}

core::TrainOptions
smallTrainOptions()
{
    core::TrainOptions opts;
    opts.epochs = 3;
    opts.seed = 21;
    opts.max_train_examples = 48;
    return opts;
}

core::PmmConfig
smallPmmConfig()
{
    core::PmmConfig config;
    config.dim = 16;
    config.token_dim = 8;
    config.gnn_layers = 2;
    config.head_hidden = 16;
    return config;
}

TEST(Loader, StreamingTrainingIsBitIdenticalToInMemory)
{
    const auto &dataset = smallDataset();
    const auto opts = smallTrainOptions();
    const auto config = smallPmmConfig();

    core::Pmm in_memory_model(config);
    const auto in_memory = trainPmm(in_memory_model, dataset, opts);

    LoaderOptions loader_opts;
    loader_opts.prefetch_threads = 3;
    loader_opts.window = 7;  // deliberately small: force stalls/reuse
    core::Pmm streamed_model(config);
    StreamSource source(dataset, loader_opts);
    const auto streamed =
        trainPmmFromSource(streamed_model, dataset, source, opts);

    ASSERT_EQ(streamed.epochs.size(), in_memory.epochs.size());
    for (size_t i = 0; i < in_memory.epochs.size(); ++i) {
        EXPECT_EQ(streamed.epochs[i].train_loss,
                  in_memory.epochs[i].train_loss)
            << i;
        expectSameMetrics(streamed.epochs[i].valid,
                          in_memory.epochs[i].valid);
    }
    expectSameMetrics(streamed.best_valid, in_memory.best_valid);
    EXPECT_EQ(streamed.best_threshold, in_memory.best_threshold);
    const auto eval_a = evaluatePmm(in_memory_model, dataset,
                                    dataset.eval,
                                    in_memory.best_threshold);
    const auto eval_b = evaluatePmm(streamed_model, dataset,
                                    dataset.eval,
                                    streamed.best_threshold);
    expectSameMetrics(eval_a, eval_b);
}

TEST(Loader, StreamingFromDiskShardsMatchesInMemory)
{
    // Full pipeline: dataset → shards → load, then stream-train
    // against in-memory training on the same loaded store. (Sharding
    // regroups examples by base range, so the loaded example order is
    // a permutation of the original dataset's — parity is defined
    // over the store both sources actually read.)
    const auto &dataset = smallDataset();
    const std::string dir = scratchDir();
    const auto paths = writeStore(dataset, dir, 2);
    const auto loaded = loadStore(testKernel(), paths);

    const auto opts = smallTrainOptions();
    const auto config = smallPmmConfig();
    core::Pmm in_memory_model(config);
    const auto in_memory = trainPmm(in_memory_model, loaded, opts);

    core::Pmm streamed_model(config);
    StreamSource source(loaded);
    const auto streamed =
        trainPmmFromSource(streamed_model, loaded, source, opts);
    ASSERT_EQ(streamed.epochs.size(), in_memory.epochs.size());
    for (size_t i = 0; i < in_memory.epochs.size(); ++i)
        EXPECT_EQ(streamed.epochs[i].train_loss,
                  in_memory.epochs[i].train_loss)
            << i;
    expectSameMetrics(streamed.best_valid, in_memory.best_valid);
}

TEST(Train, ResumeMatchesUninterruptedRun)
{
    const auto &dataset = smallDataset();
    const auto config = smallPmmConfig();
    const std::string dir = scratchDir();

    auto opts = smallTrainOptions();
    opts.epochs = 4;
    core::Pmm straight_model(config);
    const auto straight = trainPmm(straight_model, dataset, opts);

    // Interrupt after 2 epochs, then resume to the same horizon.
    auto first_half = opts;
    first_half.epochs = 2;
    first_half.checkpoint_path = dir + "/train.ckpt";
    core::Pmm resumed_model(config);
    trainPmm(resumed_model, dataset, first_half);

    auto second_half = opts;
    second_half.checkpoint_path = first_half.checkpoint_path;
    second_half.resume = true;
    core::Pmm final_model(config);  // checkpoint restores parameters
    const auto resumed = trainPmm(final_model, dataset, second_half);

    ASSERT_EQ(resumed.epochs.size(), straight.epochs.size());
    for (size_t i = 0; i < straight.epochs.size(); ++i) {
        EXPECT_EQ(resumed.epochs[i].epoch, straight.epochs[i].epoch);
        EXPECT_EQ(resumed.epochs[i].train_loss,
                  straight.epochs[i].train_loss)
            << i;
        expectSameMetrics(resumed.epochs[i].valid,
                          straight.epochs[i].valid);
    }
    expectSameMetrics(resumed.best_valid, straight.best_valid);
    EXPECT_EQ(resumed.best_threshold, straight.best_threshold);
    const auto eval_straight =
        evaluatePmm(straight_model, dataset, dataset.eval,
                    straight.best_threshold);
    const auto eval_resumed =
        evaluatePmm(final_model, dataset, dataset.eval,
                    resumed.best_threshold);
    expectSameMetrics(eval_straight, eval_resumed);
}

TEST(Train, ResumeWithoutCheckpointTrainsFromScratch)
{
    const auto &dataset = smallDataset();
    const auto config = smallPmmConfig();
    const std::string dir = scratchDir();

    auto opts = smallTrainOptions();
    opts.checkpoint_path = dir + "/absent.ckpt";
    opts.resume = true;  // warns, then trains from scratch
    core::Pmm model(config);
    const auto history = trainPmm(model, dataset, opts);
    EXPECT_EQ(history.epochs.size(), 3u);

    auto plain = smallTrainOptions();
    core::Pmm plain_model(config);
    const auto baseline = trainPmm(plain_model, dataset, plain);
    for (size_t i = 0; i < baseline.epochs.size(); ++i)
        EXPECT_EQ(history.epochs[i].train_loss,
                  baseline.epochs[i].train_loss);
}

TEST(Harvest, CampaignHarvestIsLoadableAndMergeable)
{
    const auto &kernel = testKernel();
    const std::string dir = scratchDir();

    HarvestOptions harvest_opts;
    harvest_opts.dir = dir;
    harvest_opts.seed = 9;
    Harvester harvester(kernel, harvest_opts);

    fuzz::CampaignOptions campaign_opts;
    campaign_opts.workers = 4;
    campaign_opts.fuzz.exec_budget = 4000;
    campaign_opts.fuzz.seed = 12;
    campaign_opts.fuzz.seed_corpus_size = 20;
    campaign_opts.fuzz.checkpoint_every = 500;
    campaign_opts.on_mutation = harvester.hook();
    auto engine = core::makeSyzkallerCampaign(kernel, campaign_opts);
    engine->run();
    harvester.close();

    const auto stats = harvester.stats();
    EXPECT_GT(stats.offered, 0u);
    EXPECT_GT(stats.examples, 0u);
    EXPECT_GT(stats.bases, 0u);
    EXPECT_GT(stats.bytes, 0u);

    // The harvest shard loads back against the same kernel...
    const auto loaded =
        loadStore(kernel, {harvester.shardPath()});
    EXPECT_EQ(loaded.bases.size(), stats.bases);
    EXPECT_EQ(loaded.train.size() + loaded.valid.size() +
                  loaded.eval.size(),
              stats.examples);
    for (const auto &example : loaded.train) {
        EXPECT_FALSE(example.targets.empty());
        EXPECT_FALSE(example.mutate_sites.empty());
    }

    // ...and merges cleanly with a collected store (same kernel).
    const auto collected_paths = writeStore(smallDataset(), dir, 1);
    const auto merged_path = dir + "/combined.spds";
    const auto index = mergeStore(
        {collected_paths[0], harvester.shardPath()}, merged_path);
    EXPECT_GE(index.bases, stats.bases);
    const auto combined = loadStore(kernel, {merged_path});
    EXPECT_EQ(combined.bases.size(), index.bases);
}

TEST(Harvest, CloseIsIdempotentAndDropsNeverBlock)
{
    const auto &kernel = testKernel();
    const std::string dir = scratchDir();
    HarvestOptions harvest_opts;
    harvest_opts.dir = dir;
    harvest_opts.queue_capacity = 1;  // force the drop path
    Harvester harvester(kernel, harvest_opts);

    fuzz::CampaignOptions campaign_opts;
    campaign_opts.workers = 2;
    campaign_opts.fuzz.exec_budget = 1500;
    campaign_opts.fuzz.seed = 4;
    campaign_opts.fuzz.seed_corpus_size = 10;
    campaign_opts.on_mutation = harvester.hook();
    auto engine = core::makeSyzkallerCampaign(kernel, campaign_opts);
    engine->run();
    harvester.close();
    harvester.close();
    const auto stats = harvester.stats();
    EXPECT_EQ(stats.offered, stats.dropped + stats.examples +
                                 stats.discarded);
}

}  // namespace
}  // namespace sp::data
