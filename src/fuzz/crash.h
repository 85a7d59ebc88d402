/**
 * @file
 * Crash recording, deduplication, triage and reproduction.
 *
 * Crashes are deduplicated by bug site (the analog of deduplicating by
 * crash description). Each unique crash is classified as known (already
 * on the continuous-fuzzing list, Syzbot's analog) or new, categorized
 * by manifestation (Table 3), and put through a syz-repro-style
 * reproduction pass: replay the trigger under nondeterministic
 * execution a bounded number of times, then greedily minimize the
 * reproducer by dropping calls.
 */
#ifndef SP_FUZZ_CRASH_H
#define SP_FUZZ_CRASH_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/executor.h"
#include "kernel/kernel.h"
#include "obs/metrics.h"
#include "prog/value.h"

namespace sp::fuzz {

/** One deduplicated crash. */
struct CrashRecord
{
    uint32_t bug_index = 0;
    std::string description;
    std::string location;
    kern::BugKind kind = kern::BugKind::Other;
    bool known = false;
    bool flaky = false;
    uint64_t first_seen_exec = 0;
    uint64_t hit_count = 0;
    prog::Prog trigger;         ///< first program that crashed
    bool repro_attempted = false;
    bool reproduced = false;
    prog::Prog reproducer;      ///< minimized, valid when reproduced
};

/** Options of the reproduction pass. */
struct ReproOptions
{
    /** Replay attempts per candidate (syz-repro is similarly bounded). */
    int attempts = 3;
    uint64_t noise_seed = 0x5eed;
};

/**
 * Dedup store of crashes found by one campaign. `record` and
 * `uniqueCrashes` are thread-safe (campaign workers triage
 * concurrently); every other accessor expects a quiescent log
 * (post-join reporting, reproduction).
 */
class CrashLog
{
  public:
    /** `metrics` receives `crash.unique` / `crash.duplicate` (a
     *  campaign passes its own registry). */
    explicit CrashLog(const kern::Kernel &kernel,
                      obs::Registry &metrics = obs::Registry::global());

    /** Record a crash observation; dedups by bug site. Thread-safe. */
    void record(uint32_t bug_index, const prog::Prog &trigger,
                uint64_t exec_counter);

    /**
     * Run reproduction and minimization for every recorded crash that
     * has not been attempted yet.
     */
    void reproduceAll(const ReproOptions &opts = {});

    const std::vector<CrashRecord> &records() const { return records_; }

    /** @name Tally helpers (Tables 2 and 3) */
    /** @{ */
    /** Deduplicated crash count. Thread-safe (lock-free read). */
    size_t uniqueCrashes() const
    {
        return unique_count_.load(std::memory_order_acquire);
    }
    size_t newCrashes() const;
    size_t knownCrashes() const;
    size_t reproducedCrashes() const;
    /** New crashes of `kind`, split by reproducer presence. */
    std::pair<size_t, size_t> newByKind(kern::BugKind kind) const;
    /** @} */

  private:
    /** True when `program` crashes at the record's bug site. */
    bool replayCrashes(const CrashRecord &record,
                       const prog::Prog &program,
                       const ReproOptions &opts, uint64_t salt) const;

    const kern::Kernel &kernel_;
    obs::Counter &unique_metric_;
    obs::Counter &duplicate_metric_;
    mutable std::mutex mu_;  ///< guards records_ and by_bug_ mutation
    std::vector<CrashRecord> records_;
    std::unordered_map<uint32_t, size_t> by_bug_;
    std::atomic<size_t> unique_count_{0};
};

}  // namespace sp::fuzz

#endif  // SP_FUZZ_CRASH_H
