#include "fuzz/sched.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/logging.h"

namespace sp::fuzz {

BudgetLedger::BudgetLedger(uint64_t budget, uint64_t align)
    : budget_(budget), align_(align == 0 ? 1 : align), next_(0),
      completed_(0), watermark_(0)
{
}

void
BudgetLedger::complete(const BudgetGrant &grant)
{
    if (grant.count == 0)
        return;
    completed_.fetch_add(grant.count, std::memory_order_acq_rel);

    bool advanced = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        uint64_t mark = watermark_.load(std::memory_order_relaxed);
        if (grant.begin == mark) {
            // Claims partition [0, claimed), so completed grants
            // stranded above the watermark always start exactly where
            // it lands — merge every contiguous run now unblocked.
            mark += grant.count;
            auto it = pending_done_.begin();
            while (it != pending_done_.end() && it->first == mark) {
                mark += it->second;
                it = pending_done_.erase(it);
            }
            watermark_.store(mark, std::memory_order_release);
            advanced = true;
        } else {
            pending_done_.emplace(grant.begin, grant.count);
        }
    }
    if (advanced && waiters_.load(std::memory_order_relaxed) > 0)
        cv_.notify_all();
}

void
BudgetLedger::waitForPrefix(uint64_t slot)
{
    if (prefixCompleted() >= slot)
        return;
    // The checkpoint-barrier wait is where multi-worker campaigns lose
    // time to slot skew; a CheckpointWait span makes it visible per
    // round in the trace (arg = the prefix waited for).
    obs::TraceSpan span(obs::SpanKind::CheckpointWait, slot);
    std::unique_lock<std::mutex> lock(mu_);
    waiters_.fetch_add(1, std::memory_order_relaxed);
    cv_.wait(lock, [this, slot] {
        return watermark_.load(std::memory_order_relaxed) >= slot;
    });
    waiters_.fetch_sub(1, std::memory_order_relaxed);
}

BudgetGrant
BudgetLedger::claim(uint64_t want, bool bounded)
{
    SP_ASSERT(want > 0);
    uint64_t begin = next_.load(std::memory_order_relaxed);
    for (;;) {
        uint64_t count = want;
        if (bounded) {
            if (begin >= budget_)
                return {};
            count = std::min<uint64_t>(count, budget_ - begin);
        }
        // Trim to the checkpoint grid: a grant never spans a multiple
        // of align_, so the worker finishing the slot right before a
        // boundary owns that checkpoint.
        count = std::min<uint64_t>(count, align_ - begin % align_);
        if (next_.compare_exchange_weak(begin, begin + count,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
            return {begin, count};
        }
        // `begin` reloaded by the failed CAS; retry.
    }
}

}  // namespace sp::fuzz
