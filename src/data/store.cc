#include "data/store.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "prog/serialize.h"
#include "prog/validate.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"

namespace sp::data {

namespace {

void
ensureDir(const std::string &dir)
{
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        SP_FATAL("cannot create directory %s", dir.c_str());
}

std::string
shardPath(const std::string &dir, size_t index)
{
    char name[32];
    std::snprintf(name, sizeof(name), "shard-%03zu.spds", index);
    return dir + "/" + name;
}

BaseRecord
makeBaseRecord(const prog::Prog &base, const exec::ExecResult &result)
{
    BaseRecord record;
    record.text = prog::formatProg(base);
    record.base_hash = fnv1a(record.text);
    record.blocks = result.coverage.sortedBlocks();
    record.edges = result.coverage.edgeCount();
    return record;
}

ExampleRecord
makeExampleRecord(const core::RawExample &example, uint64_t base_hash,
                  uint8_t split)
{
    ExampleRecord record;
    record.base_hash = base_hash;
    record.split = split;
    record.targets = example.targets;
    record.sites = example.mutate_sites;
    return record;
}

core::RawExample
toRawExample(const ExampleRecord &record, uint32_t base_index)
{
    core::RawExample example;
    example.base_index = base_index;
    example.targets = record.targets;
    example.mutate_sites = record.sites;
    example.canonicalize();
    return example;
}

}  // namespace

uint64_t
kernelFingerprint(const kern::Kernel &kernel)
{
    uint64_t h = fnv1a(kernel.version());
    h = hashCombine(h, kernel.blocks().size());
    h = hashCombine(h, kernel.numFlags());
    h = hashCombine(h, kernel.bugs().size());
    for (const auto &decl : kernel.table().decls) {
        h = hashCombine(h, fnv1a(decl.name));
        h = hashCombine(h, decl.args.size());
    }
    return h;
}

uint64_t
progKey(const prog::Prog &prog)
{
    return fnv1a(prog::formatProg(prog));
}

uint8_t
splitOfBase(uint64_t base_hash, uint64_t seed, double train_fraction)
{
    // One splitmix64-quality roll in [0, 1); depends only on content.
    const uint64_t mixed = hashU64(hashCombine(base_hash, seed));
    const double roll = static_cast<double>(mixed >> 11) *
                        (1.0 / 9007199254740992.0);  // 2^53
    const double valid_cut =
        train_fraction + (1.0 - train_fraction) / 2.0;
    return roll < train_fraction ? kSplitTrain
           : roll < valid_cut    ? kSplitValid
                                 : kSplitEval;
}

std::vector<std::string>
writeStore(const core::Dataset &dataset, const std::string &dir,
           size_t shard_count)
{
    SP_ASSERT(dataset.kernel != nullptr, "dataset has no kernel");
    SP_ASSERT(!dataset.bases.empty(), "refusing to write empty store");
    shard_count = std::max<size_t>(
        1, std::min(shard_count, dataset.bases.size()));
    ensureDir(dir);
    const uint64_t fingerprint = kernelFingerprint(*dataset.kernel);

    // Contiguous base ranges: shard s covers [s*per, (s+1)*per).
    const size_t per =
        (dataset.bases.size() + shard_count - 1) / shard_count;
    std::vector<size_t> shard_of_base(dataset.bases.size());
    std::vector<uint64_t> hash_of_base(dataset.bases.size());

    std::vector<std::string> paths;
    std::vector<std::unique_ptr<ShardWriter>> writers;
    for (size_t s = 0; s < shard_count; ++s) {
        paths.push_back(shardPath(dir, s));
        writers.push_back(
            std::make_unique<ShardWriter>(paths.back(), fingerprint));
    }
    for (size_t bi = 0; bi < dataset.bases.size(); ++bi) {
        const size_t s = bi / per;
        shard_of_base[bi] = s;
        BaseRecord record =
            makeBaseRecord(dataset.bases[bi], dataset.base_results[bi]);
        hash_of_base[bi] = record.base_hash;
        writers[s]->append(record);
    }
    const std::vector<core::RawExample> *splits[] = {&dataset.train,
                                                     &dataset.valid,
                                                     &dataset.eval};
    for (uint8_t split = 0; split < 3; ++split) {
        for (const auto &example : *splits[split]) {
            const size_t s = shard_of_base[example.base_index];
            writers[s]->append(makeExampleRecord(
                example, hash_of_base[example.base_index], split));
        }
    }
    for (auto &writer : writers)
        writer->close();
    return paths;
}

core::Dataset
loadStore(const kern::Kernel &kernel,
          const std::vector<std::string> &paths, bool *truncated_out)
{
    SP_ASSERT(!paths.empty(), "loadStore: no shard paths");
    core::Dataset dataset;
    dataset.kernel = &kernel;
    const uint64_t fingerprint = kernelFingerprint(kernel);
    exec::Executor executor(kernel);  // deterministic mode
    std::unordered_map<uint64_t, uint32_t> base_index;
    // Examples combine as a multiset union keyed by content: a key's
    // loaded count is the max of its per-shard counts, so listing a
    // shard twice adds nothing while legitimate in-shard duplicates
    // (distinct mutations yielding the same example) round-trip.
    std::unordered_map<uint64_t, size_t> example_counts;
    bool truncated = false;

    for (const auto &path : paths) {
        std::unordered_map<uint64_t, size_t> shard_counts;
        ShardReader reader(path);
        SP_ASSERT(reader.kernelFingerprint() == fingerprint,
                  "%s: shard was collected on a different kernel "
                  "(fingerprint %016llx, expected %016llx)",
                  path.c_str(),
                  static_cast<unsigned long long>(
                      reader.kernelFingerprint()),
                  static_cast<unsigned long long>(fingerprint));
        BaseRecord base;
        ExampleRecord example;
        bool is_base = false;
        while (reader.next(base, example, is_base)) {
            if (is_base) {
                if (base_index.count(base.base_hash) != 0)
                    continue;  // duplicate across shards
                auto parsed = prog::parseProg(base.text, kernel.table());
                SP_ASSERT(parsed.ok(),
                          "%s: stored base %016llx does not parse: %s",
                          path.c_str(),
                          static_cast<unsigned long long>(
                              base.base_hash),
                          parsed.error.c_str());
                const auto violation = prog::validateProg(*parsed.prog);
                SP_ASSERT(!violation,
                          "%s: stored base %016llx is not a valid "
                          "program: %s",
                          path.c_str(),
                          static_cast<unsigned long long>(
                              base.base_hash),
                          violation->c_str());
                auto result = executor.run(*parsed.prog);
                SP_ASSERT(
                    result.coverage.sortedBlocks() == base.blocks &&
                        result.coverage.edgeCount() == base.edges,
                    "%s: re-executing base %016llx produced different "
                    "coverage — shard does not match this kernel",
                    path.c_str(),
                    static_cast<unsigned long long>(base.base_hash));
                base_index.emplace(
                    base.base_hash,
                    static_cast<uint32_t>(dataset.bases.size()));
                dataset.bases.push_back(std::move(*parsed.prog));
                dataset.base_results.push_back(std::move(result));
                continue;
            }
            auto it = base_index.find(example.base_hash);
            if (it == base_index.end()) {
                SP_WARN("%s: example references unknown base %016llx; "
                        "skipped",
                        path.c_str(),
                        static_cast<unsigned long long>(
                            example.base_hash));
                continue;
            }
            auto raw = toRawExample(example, it->second);
            const uint64_t key =
                core::exampleKey(raw, example.base_hash);
            const size_t copies = ++shard_counts[key];
            auto &admitted = example_counts[key];
            if (copies <= admitted)
                continue;
            admitted = copies;
            switch (example.split) {
              case kSplitTrain:
                dataset.train.push_back(std::move(raw));
                break;
              case kSplitValid:
                dataset.valid.push_back(std::move(raw));
                break;
              default:
                dataset.eval.push_back(std::move(raw));
                break;
            }
        }
        if (reader.truncated()) {
            truncated = true;
            SP_WARN("%s: shard is truncated; loaded up to the last "
                    "valid record",
                    path.c_str());
        }
    }
    if (truncated_out != nullptr)
        *truncated_out = truncated;
    return dataset;
}

ShardIndex
mergeStore(const std::vector<std::string> &inputs,
           const std::string &out_path, const MergeOptions &opts)
{
    SP_ASSERT(!inputs.empty(), "mergeStore: no input shards");

    // First-seen base order; examples carried with their base hash.
    std::vector<BaseRecord> bases;
    std::unordered_map<uint64_t, size_t> base_at;
    struct Carried
    {
        core::RawExample raw;  ///< base_index into `bases`
        uint64_t base_hash;
    };
    std::vector<Carried> examples;
    std::unordered_set<uint64_t> seen;
    uint64_t fingerprint = 0;
    bool first = true;

    for (const auto &path : inputs) {
        ShardReader reader(path);
        if (first) {
            fingerprint = reader.kernelFingerprint();
            first = false;
        } else {
            SP_ASSERT(reader.kernelFingerprint() == fingerprint,
                      "%s: cannot merge shards from different kernels "
                      "(fingerprint %016llx, expected %016llx)",
                      path.c_str(),
                      static_cast<unsigned long long>(
                          reader.kernelFingerprint()),
                      static_cast<unsigned long long>(fingerprint));
        }
        BaseRecord base;
        ExampleRecord example;
        bool is_base = false;
        while (reader.next(base, example, is_base)) {
            if (is_base) {
                if (base_at.emplace(base.base_hash, bases.size())
                        .second)
                    bases.push_back(base);
                continue;
            }
            auto it = base_at.find(example.base_hash);
            if (it == base_at.end())
                continue;  // truncated sibling lost the base
            Carried carried;
            carried.base_hash = example.base_hash;
            carried.raw = toRawExample(
                example, static_cast<uint32_t>(it->second));
            if (seen.insert(core::exampleKey(carried.raw,
                                             carried.base_hash))
                    .second)
                examples.push_back(std::move(carried));
        }
        if (reader.truncated())
            SP_WARN("%s: merging a truncated shard (tail records "
                    "lost)",
                    path.c_str());
    }

    // Re-apply the §3.1 popularity cap under a seeded shuffle, exactly
    // like collectDataset: without the shuffle the cap would favor
    // whichever shard was listed first.
    Rng rng(opts.seed);
    for (size_t i = examples.size(); i > 1; --i)
        std::swap(examples[i - 1], examples[rng.below(i)]);
    std::unordered_map<uint32_t, size_t> popularity;
    std::vector<Carried> kept;
    kept.reserve(examples.size());
    for (auto &carried : examples) {
        bool over = false;
        for (uint32_t b : carried.raw.targets)
            over |= (popularity[b] >= opts.popularity_cap);
        if (over)
            continue;
        for (uint32_t b : carried.raw.targets)
            ++popularity[b];
        kept.push_back(std::move(carried));
    }

    // Compact: only bases that still back an example survive.
    std::vector<bool> base_used(bases.size(), false);
    for (const auto &carried : kept)
        base_used[carried.raw.base_index] = true;

    ShardWriter writer(out_path, fingerprint);
    for (size_t i = 0; i < bases.size(); ++i) {
        if (base_used[i])
            writer.append(bases[i]);
    }
    for (const auto &carried : kept) {
        writer.append(makeExampleRecord(
            carried.raw, carried.base_hash,
            splitOfBase(carried.base_hash, opts.seed,
                        opts.train_fraction)));
    }
    writer.close();
    return writer.index();
}

StoreStats
statStore(const std::vector<std::string> &paths)
{
    StoreStats stats;
    for (const auto &path : paths) {
        ++stats.shards;
        if (auto index = readShardIndex(path)) {
            ++stats.indexed_shards;
            stats.totals.bases += index->bases;
            stats.totals.train += index->train;
            stats.totals.valid += index->valid;
            stats.totals.eval += index->eval;
            stats.totals.bytes += index->bytes;
            continue;
        }
        ShardReader reader(path);
        BaseRecord base;
        ExampleRecord example;
        bool is_base = false;
        uint64_t bytes = 0;
        while (reader.next(base, example, is_base)) {
            if (is_base) {
                ++stats.totals.bases;
            } else {
                switch (example.split) {
                  case kSplitTrain:
                    ++stats.totals.train;
                    break;
                  case kSplitValid:
                    ++stats.totals.valid;
                    break;
                  default:
                    ++stats.totals.eval;
                    break;
                }
            }
        }
        if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
            std::fseek(f, 0, SEEK_END);
            bytes = static_cast<uint64_t>(std::ftell(f));
            std::fclose(f);
        }
        stats.totals.bytes += bytes;
        if (reader.truncated())
            ++stats.truncated_shards;
    }
    return stats;
}

}  // namespace sp::data
