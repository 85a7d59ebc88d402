#include "fuzz/corpus.h"

#include "obs/metrics.h"
#include "util/logging.h"

namespace sp::fuzz {

Corpus::Corpus(size_t shards, obs::Registry &metrics)
    : shard_count_(shards == 0 ? 1 : shards),
      shards_(std::make_unique<Shard[]>(shard_count_)),
      admit_contention_(metrics.counter("campaign.admit_contention"))
{
}

bool
Corpus::maybeAdd(const prog::Prog &program, const exec::ExecResult &result,
                 uint64_t exec_counter, size_t *new_edges_out,
                 size_t *new_blocks_out)
{
    size_t new_edges = 0;
    size_t new_blocks = 0;
    uint64_t hash = 0;
    bool admit = false;
    {
        std::unique_lock<std::mutex> lock(cov_mu_, std::try_to_lock);
        if (!lock.owns_lock()) {
            admit_contention_.inc();
            lock.lock();
        }
        const size_t blocks_before = total_.blockCount();
        new_edges = total_.countNewEdges(result.coverage);
        total_.merge(result.coverage);
        new_blocks = total_.blockCount() - blocks_before;
        edge_count_.store(total_.edgeCount(), std::memory_order_release);
        block_count_.store(total_.blockCount(),
                           std::memory_order_release);
        if (new_edges > 0) {
            epoch_.fetch_add(1, std::memory_order_release);
            hash = program.hash();
            admit = hashes_.insert(hash).second;
        }
    }
    if (new_edges_out != nullptr)
        *new_edges_out = new_edges;
    if (new_blocks_out != nullptr)
        *new_blocks_out = new_blocks;
    if (!admit)
        return false;

    CorpusEntry entry;
    entry.program.calls = program.calls;  // deep copy
    entry.result = result;
    entry.content_hash = hash;
    entry.admitted_at_exec = exec_counter;

    Shard &shard = shards_[hash % shard_count_];
    {
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.entries.push_back(std::move(entry));
        shard.count.store(shard.entries.size(),
                          std::memory_order_release);
    }
    size_.fetch_add(1, std::memory_order_release);
    return true;
}

const CorpusEntry &
Corpus::pick(Rng &rng) const
{
    SP_ASSERT(!empty(), "pick from an empty corpus");
    size_t shard_index = 0;
    if (shard_count_ > 1) {
        // Pick a shard weighted by its entry count so every entry keeps
        // (roughly) uniform base mass regardless of shard skew.
        uint64_t point = rng.below(size());
        for (; shard_index + 1 < shard_count_; ++shard_index) {
            const size_t count = shards_[shard_index].count.load(
                std::memory_order_acquire);
            if (point < count)
                break;
            point -= count;
        }
        // Admissions since the size() read may leave `point` past the
        // last shard's count; the in-shard pick below re-clamps.
    }
    for (size_t probe = 0; probe < shard_count_; ++probe) {
        Shard &shard =
            shards_[(shard_index + probe) % shard_count_];
        std::lock_guard<std::mutex> lock(shard.mu);
        const size_t n = shard.entries.size();
        if (n == 0)
            continue;  // race-skewed or empty shard: probe the next
        // Bias toward the newest quarter of the shard half the time:
        // fresh entries sit at the coverage frontier.
        if (n >= 8 && rng.chance(0.5)) {
            const size_t quarter = n / 4;
            const size_t start = n - quarter;
            return shard.entries[start + rng.below(quarter)];
        }
        return shard.entries[rng.below(n)];
    }
    SP_FATAL("corpus reported non-empty but every shard is empty");
}

const CorpusEntry &
Corpus::entry(size_t index) const
{
    for (size_t s = 0; s < shard_count_; ++s) {
        Shard &shard = shards_[s];
        std::lock_guard<std::mutex> lock(shard.mu);
        if (index < shard.entries.size())
            return shard.entries[index];
        index -= shard.entries.size();
    }
    SP_FATAL("corpus entry index out of range");
}

}  // namespace sp::fuzz
