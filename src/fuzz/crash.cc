#include "fuzz/crash.h"

#include <cstddef>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "util/logging.h"

namespace sp::fuzz {

CrashLog::CrashLog(const kern::Kernel &kernel, obs::Registry &metrics)
    : kernel_(kernel), unique_metric_(metrics.counter("crash.unique")),
      duplicate_metric_(metrics.counter("crash.duplicate"))
{
}

void
CrashLog::record(uint32_t bug_index, const prog::Prog &trigger,
                 uint64_t exec_counter)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_bug_.find(bug_index);
    if (it != by_bug_.end()) {
        ++records_[it->second].hit_count;
        duplicate_metric_.inc();
        if (auto *sink = obs::sink()) {
            sink->event("crash_dedup",
                        {{"bug_index", bug_index},
                         {"duplicate", true},
                         {"execs", exec_counter},
                         {"hits", records_[it->second].hit_count}});
        }
        return;
    }
    SP_ASSERT(bug_index < kernel_.bugs().size());
    const kern::BugSite &bug = kernel_.bugs()[bug_index];
    unique_metric_.inc();
    if (auto *sink = obs::sink()) {
        sink->event("crash_dedup",
                    {{"bug_index", bug_index},
                     {"duplicate", false},
                     {"execs", exec_counter},
                     {"known", bug.known},
                     {"flaky", bug.flaky},
                     {"description", bug.description},
                     {"location", bug.location}});
    }

    CrashRecord record;
    record.bug_index = bug_index;
    record.description = bug.description;
    record.location = bug.location;
    record.kind = bug.kind;
    record.known = bug.known;
    record.flaky = bug.flaky;
    record.first_seen_exec = exec_counter;
    record.hit_count = 1;
    record.trigger.calls = trigger.calls;  // deep copy
    by_bug_.emplace(bug_index, records_.size());
    records_.push_back(std::move(record));
    unique_count_.store(records_.size(), std::memory_order_release);
}

bool
CrashLog::replayCrashes(const CrashRecord &record,
                        const prog::Prog &program,
                        const ReproOptions &opts, uint64_t salt) const
{
    for (int attempt = 0; attempt < opts.attempts; ++attempt) {
        exec::ExecOptions exec_opts;
        exec_opts.deterministic = false;
        exec_opts.noise_seed =
            opts.noise_seed + salt * 1000 +
            static_cast<uint64_t>(attempt);
        exec::Executor executor(kernel_, exec_opts);
        auto result = executor.run(program);
        if (result.crashed && result.bug_index == record.bug_index)
            return true;
    }
    return false;
}

void
CrashLog::reproduceAll(const ReproOptions &opts)
{
    for (auto &record : records_) {
        if (record.repro_attempted)
            continue;
        record.repro_attempted = true;

        if (!replayCrashes(record, record.trigger, opts,
                           record.bug_index)) {
            record.reproduced = false;
            continue;
        }
        record.reproduced = true;

        // Greedy minimization: drop calls while the crash persists.
        prog::Prog minimized;
        minimized.calls = record.trigger.calls;
        bool shrunk = true;
        while (shrunk && minimized.calls.size() > 1) {
            shrunk = false;
            for (size_t i = 0; i < minimized.calls.size(); ++i) {
                prog::Prog candidate;
                candidate.calls = minimized.calls;
                candidate.calls.erase(
                    candidate.calls.begin() +
                    static_cast<ptrdiff_t>(i));
                prog::shiftResultRefs(candidate, i, -1);
                if (replayCrashes(record, candidate, opts,
                                  record.bug_index ^ (i + 1))) {
                    minimized = std::move(candidate);
                    shrunk = true;
                    break;
                }
            }
        }
        record.reproducer = std::move(minimized);
    }
}

size_t
CrashLog::newCrashes() const
{
    size_t count = 0;
    for (const auto &record : records_)
        count += !record.known;
    return count;
}

size_t
CrashLog::knownCrashes() const
{
    return records_.size() - newCrashes();
}

size_t
CrashLog::reproducedCrashes() const
{
    size_t count = 0;
    for (const auto &record : records_)
        count += record.reproduced;
    return count;
}

std::pair<size_t, size_t>
CrashLog::newByKind(kern::BugKind kind) const
{
    size_t with_repro = 0, without = 0;
    for (const auto &record : records_) {
        if (record.known || record.kind != kind)
            continue;
        if (record.reproduced)
            ++with_repro;
        else
            ++without;
    }
    return {with_repro, without};
}

}  // namespace sp::fuzz
