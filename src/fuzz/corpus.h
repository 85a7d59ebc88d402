/**
 * @file
 * The fuzzing corpus: deduplicated programs that each contributed new
 * edge coverage, plus the aggregated coverage they represent. Mirrors
 * Syzkaller's corpus discipline (update_corpus in Figure 1): a mutant
 * enters the corpus iff it triggered at least one edge the corpus has
 * not seen.
 *
 * The corpus is thread-safe and sharded for the multi-worker campaign
 * engine (campaign.h): admitted entries land on one of `shards` entry
 * shards (per-shard mutex, deque storage so references stay stable),
 * while admission itself serializes on one coverage mutex so the
 * "new edges over the aggregate" decision keeps its single-threaded
 * semantics. Aggregate edge/block counts and a coverage epoch are
 * mirrored into relaxed atomics so checkpoint readers never take the
 * admission lock. A single-shard corpus (the default) draws from the
 * RNG exactly like the historical unsharded corpus did, which is what
 * keeps `--workers 1` campaigns bit-for-bit reproducible.
 */
#ifndef SP_FUZZ_CORPUS_H
#define SP_FUZZ_CORPUS_H

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "exec/executor.h"
#include "obs/metrics.h"
#include "prog/value.h"
#include "util/rng.h"

namespace sp::fuzz {

/** One corpus entry: a program and the execution that admitted it. */
struct CorpusEntry
{
    prog::Prog program;
    exec::ExecResult result;
    uint64_t content_hash = 0;
    uint64_t admitted_at_exec = 0;  ///< executions counter at admission
};

/** Coverage-growing program set (thread-safe, optionally sharded). */
class Corpus
{
  public:
    /**
     * @param shards   entry shards; 1 reproduces the legacy corpus.
     * @param metrics  registry receiving `campaign.admit_contention`
     *                 (a campaign passes its own).
     */
    explicit Corpus(size_t shards = 1,
                    obs::Registry &metrics = obs::Registry::global());

    Corpus(const Corpus &) = delete;
    Corpus &operator=(const Corpus &) = delete;

    /**
     * Admit `program` iff its execution added edge coverage over the
     * corpus total (and it is not a duplicate). Returns true when
     * admitted. The coverage total grows either way. When `new_edges`
     * is non-null it receives the number of edges this execution added
     * to the aggregate (the legacy before/after edge delta);
     * `new_blocks` likewise for blocks (policy reward feedback).
     */
    bool maybeAdd(const prog::Prog &program,
                  const exec::ExecResult &result, uint64_t exec_counter,
                  size_t *new_edges = nullptr,
                  size_t *new_blocks = nullptr);

    /**
     * Pick an entry to mutate, biased toward recent additions. The
     * returned reference is stable (deque storage, entries immutable
     * after admission) and safe to read concurrently with admissions.
     */
    const CorpusEntry &pick(Rng &rng) const;

    /**
     * Entry by global index (shard-major enumeration). Indices are
     * stable in single-shard mode; with multiple shards concurrent
     * admissions may shift the index→entry mapping, so treat an index
     * as a momentary handle, not an identity.
     */
    const CorpusEntry &entry(size_t index) const;

    size_t size() const
    {
        return size_.load(std::memory_order_acquire);
    }
    bool empty() const { return size() == 0; }

    /**
     * Aggregated coverage over every executed program (not just kept).
     * Reading the returned set races with concurrent admissions — only
     * use it from single-threaded phases (setup, post-join reporting,
     * the stop predicate of a 1-worker CampaignEngine::runUntil).
     */
    const exec::CoverageSet &totalCoverage() const { return total_; }

    /** @name Lock-free aggregate counters (checkpoint hot path) */
    /** @{ */
    size_t edgeCount() const
    {
        return edge_count_.load(std::memory_order_acquire);
    }
    size_t blockCount() const
    {
        return block_count_.load(std::memory_order_acquire);
    }
    /** Bumped once per admission merge that grew the aggregate. */
    uint64_t coverageEpoch() const
    {
        return epoch_.load(std::memory_order_acquire);
    }
    /** @} */

    size_t shardCount() const { return shard_count_; }

  private:
    struct Shard
    {
        mutable std::mutex mu;
        std::deque<CorpusEntry> entries;
        std::atomic<size_t> count{0};
    };

    const size_t shard_count_;
    std::unique_ptr<Shard[]> shards_;

    /** Serializes admission: aggregate coverage + content dedup. */
    mutable std::mutex cov_mu_;
    std::unordered_set<uint64_t> hashes_;
    exec::CoverageSet total_;

    std::atomic<size_t> edge_count_{0};
    std::atomic<size_t> block_count_{0};
    std::atomic<size_t> size_{0};
    std::atomic<uint64_t> epoch_{0};

    /** Admission-lock contention events (multi-worker campaigns). */
    obs::Counter &admit_contention_;
};

}  // namespace sp::fuzz

#endif  // SP_FUZZ_CORPUS_H
