/**
 * @file
 * The campaign scheduler seam and the virtual-time budget ledger.
 *
 * Two pieces of Figure 1's loop become explicit, pluggable stages here:
 *
 *  - **schedule**: a Scheduler picks the base corpus entry each worker
 *    mutates next. The default reproduces the corpus' recency-biased
 *    pick; the directed mode's distance-guided picker (core/directed.h)
 *    is another Scheduler implementation. StaticPolicy (policy.h)
 *    consumes the configured Scheduler as its pick adapter.
 *
 *  - **virtual time**: the execution budget (one unit per executed
 *    test, DESIGN.md §6) becomes a shared BudgetLedger that workers
 *    claim slots from. Grants are aligned to the checkpoint grid —
 *    no grant ever spans a multiple of `checkpoint_every` — so the
 *    coverage timeline stays on the same fixed execution grid no
 *    matter how many workers run, and every slot has a globally unique
 *    1-based execution number for crash/admission/telemetry stamping.
 */
#ifndef SP_FUZZ_SCHED_H
#define SP_FUZZ_SCHED_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "fuzz/corpus.h"

namespace sp::fuzz {

/** A claimed run of virtual-time execution slots. */
struct BudgetGrant
{
    uint64_t begin = 0;  ///< first slot index (0-based)
    uint64_t count = 0;  ///< slots granted; 0 = budget exhausted

    bool empty() const { return count == 0; }
};

/**
 * Shared virtual-time budget. Thread-safe; claims are checkpoint
 * aligned. Completion is tracked two ways: `completed()` is the total
 * slot count (campaign accounting), while `prefixCompleted()` is the
 * contiguous-prefix watermark — every slot below it has finished, no
 * matter how grants interleaved across workers — which is what
 * checkpoint emission synchronizes on (`waitForPrefix`).
 */
class BudgetLedger
{
  public:
    /**
     * @param budget  total executions allowed
     * @param align   checkpoint grid; grants never span a multiple
     */
    BudgetLedger(uint64_t budget, uint64_t align);

    /**
     * Claim up to `want` slots. The grant is trimmed to the budget and
     * to the next checkpoint boundary. With `bounded` false the budget
     * cap is ignored (the seed phase executes its whole generated
     * corpus, even past the budget).
     */
    BudgetGrant claim(uint64_t want, bool bounded = true);

    /** Mark the slots of `grant` as executed, advancing the prefix
     *  watermark (and waking `waitForPrefix` waiters) when the grant
     *  closes a gap. */
    void complete(const BudgetGrant &grant);

    /** Block until every slot below `slot` has completed. */
    void waitForPrefix(uint64_t slot);

    /** True once every budgeted slot has been claimed. */
    bool exhausted() const { return claimed() >= budget_; }

    uint64_t budget() const { return budget_; }
    uint64_t claimed() const
    {
        return next_.load(std::memory_order_acquire);
    }
    uint64_t completed() const
    {
        return completed_.load(std::memory_order_acquire);
    }
    /** Contiguous completed prefix: slots [0, watermark) are done. */
    uint64_t prefixCompleted() const
    {
        return watermark_.load(std::memory_order_acquire);
    }

  private:
    const uint64_t budget_;
    const uint64_t align_;
    std::atomic<uint64_t> next_;
    std::atomic<uint64_t> completed_;
    std::atomic<uint64_t> watermark_;

    /** Guards the watermark advance and the waiter wakeup. */
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::atomic<int> waiters_{0};
    /** Completed grants stranded above the watermark, by begin slot. */
    std::map<uint64_t, uint64_t> pending_done_;
};

/** Picks the base corpus entry for a worker's next mutation round. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /**
     * Choose the entry to mutate. Must be callable from concurrent
     * workers (each passes its own RNG; the corpus is thread-safe).
     */
    virtual const CorpusEntry &pick(const Corpus &corpus, Rng &rng) = 0;
};

/** The default policy: the corpus' recency-biased random pick. */
class RecencyScheduler : public Scheduler
{
  public:
    const CorpusEntry &
    pick(const Corpus &corpus, Rng &rng) override
    {
        return corpus.pick(rng);
    }
};

}  // namespace sp::fuzz

#endif  // SP_FUZZ_SCHED_H
