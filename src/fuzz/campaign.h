/**
 * @file
 * The campaign engine: the coverage-guided fuzzing loop of Figure 1 as
 * an explicit staged pipeline,
 *
 *     schedule → localize → instantiate → execute → triage/admit
 *              → checkpoint
 *
 * run by one or more workers over shared campaign state. Call
 * insertion/removal mutations run alongside argument mutations with
 * their Syzkaller weights. Swapping the Localizer is exactly how
 * Snowplow is built on top of this loop (src/core/snowplow.h).
 *
 * Time is virtual: the budget is counted in executed programs, the
 * resource both compared systems share (§5.3's same-machine-cost
 * comparison). Coverage is checkpointed on a fixed execution grid so
 * runs are directly comparable:
 *
 *  - the Corpus is sharded (one shard per worker) and thread-safe;
 *  - each worker owns a deterministic RNG stream split from the
 *    campaign seed (worker 0's stream IS the campaign seed, so a
 *    1-worker campaign is bit-for-bit reproducible), its own executor
 *    from an exec::ExecutorPool, and its own localizer (built by a
 *    per-worker factory so learned localizers can share one
 *    InferenceService and one prediction cache);
 *  - virtual time is a shared BudgetLedger claimed in
 *    checkpoint-aligned grants, so the coverage timeline lands on the
 *    same fixed execution grid regardless of worker count; and
 *  - checkpoints are emitted in order by the worker that executed the
 *    slot completing each grid boundary, after blocking (on condition
 *    variables, not a spin) until the ledger's contiguous-prefix
 *    completion watermark covers every earlier slot and every earlier
 *    checkpoint has been emitted, which makes each checkpoint a
 *    consistent prefix snapshot and the timeline monotone.
 */
#ifndef SP_FUZZ_CAMPAIGN_H
#define SP_FUZZ_CAMPAIGN_H

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "fuzz/corpus.h"
#include "fuzz/crash.h"
#include "fuzz/policy.h"
#include "fuzz/sched.h"
#include "mutate/mutator.h"
#include "obs/metrics.h"

namespace sp::obs {
class CovMap;
class TimelineRecorder;
}

namespace sp::fuzz {

/** Fuzzing-loop configuration. */
struct FuzzOptions
{
    uint64_t exec_budget = 50000;     ///< program executions ("time")
    size_t seed_corpus_size = 40;
    /**
     * Programs executed ahead of the generated seed corpus (the fleet
     * coordinator's seed batches enter a node's lease campaign here).
     * Empty — the default — leaves the seed stage byte-for-byte the
     * plain generate-and-execute path.
     */
    std::vector<prog::Prog> injected_seeds;
    uint64_t seed = 1;
    bool noisy = true;                ///< nondeterministic execution
    uint64_t checkpoint_every = 500;  ///< coverage timeline grid
    /** Instantiations per localized argument site. */
    size_t mutations_per_site = 3;
    /** Max argument sites requested from the localizer per base. */
    size_t max_sites_per_base = 6;
    /** Non-argument (insert/remove) mutants per base pick. */
    size_t structural_mutations_per_base = 2;
    mut::MutatorOptions mutator;
    /**
     * The decision policy driving scheduling, operator choice, and
     * PMM-vs-random arbitration (policy.h). The default StaticPolicy
     * reproduces the historical loop bit-for-bit; `policy.kind =
     * Thompson` switches every decision to the bandit.
     */
    PolicyOptions policy;
    /**
     * Optional scheduler (Figure 1's test selection as a stage): picks
     * the corpus entry to mutate. Consumed by StaticPolicy as its pick
     * adapter (ignored by ThompsonPolicy, which schedules from the
     * posterior). Shared across campaign workers, so implementations
     * must be safe for concurrent pick() calls. When unset, the
     * recency-biased default runs.
     */
    std::shared_ptr<Scheduler> scheduler;
    /**
     * Optional coverage-cartography accumulator (obs/covmap.h, not
     * owned; must outlive the run). Workers record per-call block
     * traces into their shard after every execution, the in-order
     * checkpoint owner merges + emits one snapshot window per grid
     * boundary, and the run finalizes it. Null = hit-count profiling
     * off (zero overhead).
     */
    obs::CovMap *covmap = nullptr;
    /**
     * Optional campaign timeline recorder (obs/timeline.h, not owned;
     * must outlive the run). The in-order checkpoint owner hands it
     * one tick per grid boundary — campaign facts plus the covmap and
     * policy merged state — and it samples the campaign's registry
     * under that serialization; the run ends with its final record
     * (after the covmap's). Null = no metric history (zero overhead).
     */
    obs::TimelineRecorder *timeline = nullptr;
    /**
     * Execution backend for every worker executor. Bit-identical
     * either way (exec/backend.h); Reference exists for differential
     * runs and A/B throughput measurements.
     */
    exec::BackendKind exec_backend = exec::BackendKind::Fast;
};

/** Which mutation lane produced a program (telemetry attribution). */
enum class MutationLane {
    Seed,        ///< generated seed-corpus program
    Argument,    ///< localized argument mutation
    Structural,  ///< selector-driven insert/remove/random-arg lane
};

/** MutationLane as a dense array index. */
constexpr size_t kMutationLanes = 3;
constexpr size_t
laneIndex(MutationLane lane)
{
    return static_cast<size_t>(lane);
}

/** One coverage checkpoint. */
struct Checkpoint
{
    uint64_t execs = 0;
    size_t edges = 0;
    size_t blocks = 0;
    size_t crashes = 0;
};

/** Per-lane production/admission totals of one campaign. */
struct LaneCounts
{
    uint64_t produced = 0;
    uint64_t admitted = 0;
};

/** Outcome of one fuzzing campaign. */
struct FuzzReport
{
    std::vector<Checkpoint> timeline;
    size_t final_edges = 0;
    size_t final_blocks = 0;
    uint64_t execs = 0;
    size_t corpus_size = 0;
    /** Unique (deduplicated) crashes at budget end. */
    size_t final_crashes = 0;
    /** Mutants produced/admitted per lane, indexed by laneIndex(). */
    std::array<LaneCounts, kMutationLanes> lanes{};

    const LaneCounts &
    lane(MutationLane which) const
    {
        return lanes[laneIndex(which)];
    }
};

/**
 * One executed argument-lane mutant, offered to the campaign's
 * mutation observer right after triage/admit. All pointers are valid
 * ONLY for the duration of the callback — an observer that wants the
 * data must copy it. `mutant` is the worker's scratch copy of the
 * base, which the worker turns back into the base right after the
 * callback: it has the base's call count and differs from `*base` at
 * most in call `site->call_index`. `base` points into the picked
 * corpus entry, `base_result` to the worker's copy of its result. The
 * callback runs on the worker thread inside the execute stage, so
 * observers must be cheap and thread-safe (multiple workers call
 * concurrently); anything expensive belongs on the observer's own
 * thread (see data::Harvester).
 */
struct MutationEvent
{
    size_t worker = 0;
    uint64_t slot = 0;  ///< 1-based execution number
    const prog::Prog *base = nullptr;
    const exec::ExecResult *base_result = nullptr;
    const mut::ArgLocation *site = nullptr;  ///< instantiated site
    const prog::Prog *mutant = nullptr;
    const exec::ExecResult *result = nullptr;  ///< mutant's execution
    bool admitted = false;    ///< corpus accepted it (new edges)
    size_t new_edges = 0;
};

/** Campaign mutation-event hook (empty = no observer installed). */
using MutationObserver = std::function<void(const MutationEvent &)>;

/** Execution options the fuzz loop derives from its own options. */
exec::ExecOptions execOptionsFor(const FuzzOptions &opts);

/**
 * Build the effective scheduler for `opts`: `opts.scheduler` if set,
 * else the recency-biased default. Consumed by StaticPolicy (policy.h)
 * as its pick adapter — the schedulers are not dispatched by the loop
 * itself.
 */
std::shared_ptr<Scheduler> makeScheduler(const FuzzOptions &opts);

/** Campaign-engine configuration. */
struct CampaignOptions
{
    /** Worker threads; 1 is bit-for-bit reproducible per seed. */
    size_t workers = 1;
    FuzzOptions fuzz;
    /**
     * Called for every argument-lane mutant right after triage (from
     * worker threads; see MutationEvent's contract). Feeds continual
     * dataset harvesting without the fuzz layer knowing about it.
     */
    MutationObserver on_mutation;
};

/**
 * Runs one fuzzing campaign over N staged workers. One-shot: construct,
 * run() or runUntil(), then inspect corpus()/crashes()/metrics().
 */
class CampaignEngine
{
  public:
    /** Builds the localizer of one worker (called once per worker at
     *  construction time, on the constructing thread). */
    using LocalizerFactory =
        std::function<std::unique_ptr<mut::Localizer>(size_t worker)>;

    /** Early-stop predicate of runUntil (empty = never stop). */
    using StopPredicate = std::function<bool(const CampaignEngine &)>;

    CampaignEngine(const kern::Kernel &kernel, CampaignOptions options,
                   LocalizerFactory make_localizer);

    /** Run the campaign to budget exhaustion: runUntil(never). */
    FuzzReport run();

    /**
     * Run until `stop` returns true or the budget is exhausted. The
     * predicate sees the engine between executions (directed mode
     * stops on reaching its target). It runs inside the worker loop,
     * and corpus().totalCoverage() is single-threaded only, so a
     * non-empty predicate requires `workers = 1`. One-shot: run() and
     * runUntil() together may be called once per engine.
     */
    FuzzReport runUntil(const StopPredicate &stop);

    /** @name Introspection (quiescent: before the run, after it, or
     *  from a 1-worker stop predicate) */
    /** @{ */
    const Corpus &corpus() const { return corpus_; }
    CrashLog &crashes() { return crashes_; }
    const CrashLog &crashes() const { return crashes_; }
    const kern::Kernel &kernel() const { return kernel_; }
    size_t workerCount() const { return opts_.workers; }
    /** Executions completed so far (seed stage included). */
    uint64_t execs() const { return ledger_.completed(); }
    /** The campaign's decision policy (merged posterior after the
     *  run). */
    const DecisionPolicy *policy() const { return policy_.get(); }
    /**
     * This campaign's metrics (`fuzz.*`, `campaign.*`, `crash.*`,
     * `exec.*`, `covmap.*`, `policy.*`, `timeline.*`), a child of
     * obs::Registry::global(): every write also lands in the global
     * metric of the same name, but this registry counts this campaign
     * alone.
     */
    obs::Registry &metrics() { return metrics_; }
    const obs::Registry &metrics() const { return metrics_; }
    /** @} */

  private:
    const kern::Kernel &kernel_;
    CampaignOptions opts_;
    /** Declared before every member holding handles into it. */
    obs::Registry metrics_;
    std::shared_ptr<DecisionPolicy> policy_;
    mut::Mutator mutator_;
    exec::ExecutorPool executors_;
    Corpus corpus_;
    CrashLog crashes_;
    BudgetLedger ledger_;
    std::vector<std::unique_ptr<Rng>> rngs_;
    std::vector<std::unique_ptr<mut::Localizer>> localizers_;
    bool ran_ = false;
};

}  // namespace sp::fuzz

#endif  // SP_FUZZ_CAMPAIGN_H
