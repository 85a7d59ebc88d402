/**
 * @file
 * The decision-policy seam: one layer owning every per-round choice of
 * the fuzz loop.
 *
 * The loop makes three interleaved decisions each round — which corpus
 * entry to mutate (scheduling), which mutation operator to apply, and
 * whether argument localization should use the learned model or the
 * random fallback (§3.4's fixed probability). Historically those lived
 * in three places (fuzz::Scheduler, the mutator's type selector, and a
 * hardcoded probability in core::SnowplowOptions) with no feedback from
 * outcomes to choices. A DecisionPolicy sees all three through one
 * seam:
 *
 *  - `decide()` observes a DecisionContext (corpus, virtual time,
 *    whether the worker's localizer is learned) and emits a
 *    Decision{seed, seed_bucket, use_pmm};
 *  - `pickOperator()` chooses the operator class for each structural
 *    mutant (the legacy loop re-rolls the selector per mutant, so the
 *    operator axis is sampled lazily rather than stored in Decision);
 *  - after triage/admit the engine feeds back a Reward{new_edges,
 *    new_blocks, crash} stamped with the virtual-time slot, attributed
 *    to an arm of (seed-bucket × operator-class × localizer-channel).
 *
 * Reward bookkeeping uses the CovShard single-writer pattern: each
 * worker owns a shard of relaxed-atomic (pulls, wins) cells it alone
 * writes; the serialized checkpoint owner merges every shard into the
 * global posterior before publishing the checkpoint, so posterior
 * updates land on the deterministic virtual-time grid (and a 1-worker
 * campaign's posterior evolution is bit-for-bit reproducible).
 *
 * StaticPolicy ports the historical behavior exactly — the configured
 * Scheduler (recency default or directed distance) does the pick, the
 * operator comes from Mutator::selectType, and use_pmm is one
 * `rng.chance(pmm_fallback_prob)` draw in the historical stream
 * position — so the default policy reproduces the pre-policy timeline
 * bit-for-bit. ThompsonPolicy replaces all three with Beta-Bernoulli
 * Thompson sampling over the merged posterior.
 */
#ifndef SP_FUZZ_POLICY_H
#define SP_FUZZ_POLICY_H

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/sched.h"
#include "mutate/mutator.h"

namespace sp::fuzz {

class DecisionPolicy;

/** Which decision policy drives the loop. */
enum class PolicyKind : uint8_t {
    Static,    ///< legacy behavior behind the seam (default)
    Thompson,  ///< Beta-Bernoulli bandit over (bucket × op × channel)
};

/** Policy configuration (FuzzOptions::policy). */
struct PolicyOptions
{
    PolicyKind kind = PolicyKind::Static;
    /**
     * Probability of deferring argument localization to the random
     * fallback when the localizer is learned (§3.4). Moved here from
     * core::SnowplowOptions: the arbitration is a loop decision, not a
     * localizer property. StaticPolicy draws it per round; Thompson
     * arbitrates from the posterior instead.
     */
    double pmm_fallback_prob = 0.05;
    /** Seed-age buckets (the scheduling arm axis). */
    size_t seed_buckets = 4;
    /** Beta prior (alpha = wins + prior_alpha, etc.). */
    double prior_alpha = 1.0;
    double prior_beta = 1.0;
    /** Custom policy instance; overrides `kind` when set. */
    std::shared_ptr<DecisionPolicy> custom;
};

/** Operator classes the policy chooses among (mut::MutationType as a
 *  dense reward-arm axis). */
constexpr size_t kOpClasses = 3;
constexpr size_t
opClassIndex(mut::MutationType type)
{
    return static_cast<size_t>(type);
}

/** What a policy observes before deciding a round. */
struct DecisionContext
{
    const Corpus *corpus = nullptr;
    const mut::Mutator *mutator = nullptr;
    /** The worker's localizer is model-backed: the policy arbitrates
     *  model-vs-random (and must not draw for plain localizers). */
    bool learned_localizer = false;
    size_t worker = 0;
    /** Virtual-time slots claimed so far (bucketing clock). */
    uint64_t now_slot = 0;
};

/** One round's scheduling + arbitration decision. */
struct Decision
{
    /** Entry to mutate (stable reference, corpus-owned). */
    const CorpusEntry *seed = nullptr;
    /** Seed-age bucket of `seed` (reward-arm axis). */
    size_t seed_bucket = 0;
    /** Localize with the learned model (false when not learned). */
    bool use_pmm = false;
};

/** Outcome of one executed mutant, fed back after triage/admit. */
struct Reward
{
    size_t new_edges = 0;
    size_t new_blocks = 0;
    bool crash = false;
    /** 1-based virtual-time execution number of the mutant. */
    uint64_t slot = 0;
};

/**
 * The decision seam. Decision methods are called from concurrent
 * workers (each passes its own RNG; the corpus is thread-safe);
 * recordReward is single-writer per worker; onCheckpoint and
 * exportMetrics must only run from serialized contexts (the in-order
 * checkpoint owner, or after workers joined).
 */
class DecisionPolicy
{
  public:
    explicit DecisionPolicy(PolicyOptions opts);
    virtual ~DecisionPolicy() = default;

    virtual const char *name() const = 0;

    /** Pick the round's base entry and the localization channel. */
    virtual Decision decide(const DecisionContext &ctx, Rng &rng) = 0;

    /** Choose the operator class for one structural mutant of `prog`
     *  (called per mutant, like the legacy selector). */
    virtual mut::MutationType pickOperator(const DecisionContext &ctx,
                                           const Decision &decision,
                                           Rng &rng,
                                           const prog::Prog &prog) = 0;

    /**
     * Start a campaign of `workers` workers: one zeroed reward shard
     * per worker and an empty merged posterior. Called once per
     * campaign, before any worker starts.
     */
    void beginCampaign(size_t workers);

    /** Dense arm index for reward attribution. */
    int armFor(size_t bucket, mut::MutationType op,
               mut::LocalizerChannel channel) const;

    /** Record one executed mutant's outcome into `worker`'s shard
     *  (success = the mutant added edge coverage). Arm -1 = unattributed
     *  (seed-stage executions); ignored. */
    void recordReward(size_t worker, int arm, const Reward &reward);

    /**
     * Checkpoint hook: fold every worker shard into the global
     * posterior. Runs in the serialized checkpoint owner before the
     * checkpoint publish — the same single-writer merge discipline as
     * obs::CovShard — so the posterior the next rounds sample from is a
     * deterministic function of the virtual-time grid.
     */
    virtual void onCheckpoint(uint64_t slot);

    /** Final merge + `policy.*` gauge export (post-join only). */
    void exportMetrics();

    /** Compact posterior summary for the /status campaign section. */
    std::string statusJson() const;

    /** @name Posterior introspection (merged values) */
    /** @{ */
    size_t bucketCount() const { return opts_.seed_buckets; }
    size_t armCount() const
    {
        return opts_.seed_buckets * kOpClasses * mut::kLocalizerChannels;
    }
    uint64_t mergedPulls(int arm) const;
    uint64_t mergedWins(int arm) const;
    /** Model-channel share of argument-lane pulls. */
    double pmmShare() const;
    const PolicyOptions &options() const { return opts_; }
    /** @} */

    /** Seed-age bucket: the entry's admission time relative to the
     *  current virtual time, quantized to `seed_buckets`. */
    size_t bucketOf(const CorpusEntry &entry, uint64_t now_slot) const;

  protected:
    /** Merged posterior counts for one arm (sampling hot path). */
    void
    mergedArm(int arm, uint64_t *pulls, uint64_t *wins) const
    {
        *pulls = merged_pulls_[static_cast<size_t>(arm)].load(
            std::memory_order_relaxed);
        *wins = merged_wins_[static_cast<size_t>(arm)].load(
            std::memory_order_relaxed);
    }

    const PolicyOptions opts_;

  private:
    /** Fold every shard into merged_ (serialized contexts only). */
    void mergeShards();

    /** One worker's single-writer reward cells. */
    struct Shard
    {
        std::unique_ptr<std::atomic<uint64_t>[]> pulls;
        std::unique_ptr<std::atomic<uint64_t>[]> wins;
    };

    std::vector<Shard> shards_;
    /** Global posterior: sum over shards at the last merge. Written by
     *  the serialized merger, read lock-free by deciding workers. */
    std::unique_ptr<std::atomic<uint64_t>[]> merged_pulls_;
    std::unique_ptr<std::atomic<uint64_t>[]> merged_wins_;
};

/**
 * The historical behavior behind the seam: scheduler-driven pick
 * (recency default / directed distance — the Scheduler
 * implementations become adapters here), selector-weight operator
 * choice, and the fixed §3.4 fallback probability. With the
 * historical RNG draw order preserved exactly, a 1-worker StaticPolicy
 * campaign reproduces the pre-policy timeline bit-for-bit.
 */
class StaticPolicy : public DecisionPolicy
{
  public:
    StaticPolicy(std::shared_ptr<Scheduler> scheduler,
                 PolicyOptions opts);

    const char *name() const override { return "static"; }

    Decision decide(const DecisionContext &ctx, Rng &rng) override;

    mut::MutationType pickOperator(const DecisionContext &ctx,
                                   const Decision &decision, Rng &rng,
                                   const prog::Prog &prog) override;

  private:
    std::shared_ptr<Scheduler> scheduler_;
};

/**
 * Beta-Bernoulli Thompson sampling over (seed-bucket × operator-class
 * × localizer-channel) arms; success = the mutant added edge coverage.
 * Seed pick samples the bucket marginals and draws uniformly inside
 * the winning bucket's index range (shard-major index position as the
 * admission-age proxy); use_pmm compares posterior samples of the
 * Model vs Random channel of the chosen bucket's argument arms (the
 * per-seed online PMM-vs-random arbitration — ForcedRandom outcomes
 * sit in their own channel and bias neither side); the operator comes
 * from posterior samples over the feasible operator classes.
 */
class ThompsonPolicy : public DecisionPolicy
{
  public:
    explicit ThompsonPolicy(PolicyOptions opts);

    const char *name() const override { return "thompson"; }

    Decision decide(const DecisionContext &ctx, Rng &rng) override;

    mut::MutationType pickOperator(const DecisionContext &ctx,
                                   const Decision &decision, Rng &rng,
                                   const prog::Prog &prog) override;

  private:
    /** Posterior sample for the merged (pulls, wins) of `arm`. */
    double sampleArm(int arm, Rng &rng) const;
    /** Posterior sample for a bucket's scheduling marginal. */
    double sampleBucket(size_t bucket, Rng &rng) const;
};

struct FuzzOptions;

/**
 * Build the effective policy for `opts`: `opts.policy.custom` if set,
 * else a StaticPolicy over the configured scheduler or a
 * ThompsonPolicy, per `opts.policy.kind`.
 */
std::shared_ptr<DecisionPolicy> makePolicy(const FuzzOptions &opts);

}  // namespace sp::fuzz

#endif  // SP_FUZZ_POLICY_H
