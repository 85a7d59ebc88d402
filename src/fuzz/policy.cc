#include "fuzz/policy.h"

#include <cmath>

#include "fuzz/campaign.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace sp::fuzz {

namespace {

/**
 * Gamma(shape, 1) draw via Marsaglia-Tsang squeeze (shape >= 1) with
 * the Ahrens-Dieter boost for shape < 1. Draw count is variable (a
 * rejection sampler), which is fine: only ThompsonPolicy samples, and
 * it makes no bit-for-bit promise — determinism for a fixed seed and
 * worker count is preserved because every draw still comes from the
 * worker's own stream.
 */
double
sampleGamma(Rng &rng, double shape)
{
    if (shape < 1.0) {
        const double u = rng.uniform();
        return sampleGamma(rng, shape + 1.0) *
               std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    while (true) {
        const double x = rng.gaussian();
        double v = 1.0 + c * x;
        if (v <= 0.0)
            continue;
        v = v * v * v;
        const double u = rng.uniform();
        if (u < 1.0 - 0.0331 * x * x * x * x)
            return d * v;
        if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
            return d * v;
    }
}

double
sampleBeta(Rng &rng, double alpha, double beta)
{
    const double x = sampleGamma(rng, alpha);
    const double y = sampleGamma(rng, beta);
    const double sum = x + y;
    return sum > 0.0 ? x / sum : 0.5;
}

/** Registry handles for the policy gauges (looked up once; the values
 *  are campaign-scoped via resetGaugesWithPrefix("policy."), which
 *  zeroes in place and keeps these handles valid). */
struct PolicyMetrics
{
    obs::Gauge &arm_pulls;
    obs::Gauge &arm_mean_reward;
    obs::Gauge &pmm_share;

    static PolicyMetrics &
    get()
    {
        auto &reg = obs::Registry::global();
        static PolicyMetrics metrics{
            reg.gauge("policy.arm_pulls"),
            reg.gauge("policy.arm_mean_reward"),
            reg.gauge("policy.pmm_share"),
        };
        return metrics;
    }
};

}  // namespace

DecisionPolicy::DecisionPolicy(PolicyOptions opts)
    : opts_(std::move(opts))
{
    SP_ASSERT(opts_.seed_buckets > 0, "policy needs >= 1 seed bucket");
    const size_t arms = armCount();
    merged_pulls_ = std::make_unique<std::atomic<uint64_t>[]>(arms);
    merged_wins_ = std::make_unique<std::atomic<uint64_t>[]>(arms);
    for (size_t a = 0; a < arms; ++a) {
        merged_pulls_[a].store(0, std::memory_order_relaxed);
        merged_wins_[a].store(0, std::memory_order_relaxed);
    }
}

void
DecisionPolicy::beginCampaign(size_t workers)
{
    if (workers == 0)
        workers = 1;
    const size_t arms = armCount();
    shards_.clear();
    shards_.reserve(workers);
    while (shards_.size() < workers) {
        Shard shard;
        shard.pulls = std::make_unique<std::atomic<uint64_t>[]>(arms);
        shard.wins = std::make_unique<std::atomic<uint64_t>[]>(arms);
        for (size_t a = 0; a < arms; ++a) {
            shard.pulls[a].store(0, std::memory_order_relaxed);
            shard.wins[a].store(0, std::memory_order_relaxed);
        }
        shards_.push_back(std::move(shard));
    }
    mergeShards();
}

int
DecisionPolicy::armFor(size_t bucket, mut::MutationType op,
                       mut::LocalizerChannel channel) const
{
    SP_ASSERT(bucket < opts_.seed_buckets, "bucket out of range");
    const size_t op_index = opClassIndex(op);
    const size_t ch_index = static_cast<size_t>(channel);
    return static_cast<int>(
        (bucket * kOpClasses + op_index) * mut::kLocalizerChannels +
        ch_index);
}

void
DecisionPolicy::recordReward(size_t worker, int arm,
                             const Reward &reward)
{
    if (arm < 0)
        return;
    SP_ASSERT(worker < shards_.size(),
              "recordReward before beginCampaign sized the shards");
    Shard &shard = shards_[worker];
    const auto a = static_cast<size_t>(arm);
    // Single-writer cells (only this worker's thread touches them), so
    // load+store beats an RMW — the CovShard increment discipline.
    shard.pulls[a].store(
        shard.pulls[a].load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    if (reward.new_edges > 0) {
        shard.wins[a].store(
            shard.wins[a].load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
    }
}

void
DecisionPolicy::mergeShards()
{
    const size_t arms = armCount();
    for (size_t a = 0; a < arms; ++a) {
        uint64_t pulls = 0;
        uint64_t wins = 0;
        // Plain summation: commutative, so the merged posterior is
        // independent of shard order and of which worker merges.
        for (const Shard &shard : shards_) {
            pulls += shard.pulls[a].load(std::memory_order_relaxed);
            wins += shard.wins[a].load(std::memory_order_relaxed);
        }
        merged_pulls_[a].store(pulls, std::memory_order_relaxed);
        merged_wins_[a].store(wins, std::memory_order_relaxed);
    }
}

void
DecisionPolicy::onCheckpoint(uint64_t /*slot*/)
{
    mergeShards();
}

uint64_t
DecisionPolicy::mergedPulls(int arm) const
{
    return merged_pulls_[static_cast<size_t>(arm)].load(
        std::memory_order_relaxed);
}

uint64_t
DecisionPolicy::mergedWins(int arm) const
{
    return merged_wins_[static_cast<size_t>(arm)].load(
        std::memory_order_relaxed);
}

double
DecisionPolicy::pmmShare() const
{
    uint64_t model = 0;
    uint64_t arg_total = 0;
    for (size_t b = 0; b < opts_.seed_buckets; ++b) {
        for (size_t ch = 0; ch < mut::kLocalizerChannels; ++ch) {
            const int arm =
                armFor(b, mut::MutationType::ArgumentMutation,
                       static_cast<mut::LocalizerChannel>(ch));
            const uint64_t pulls = mergedPulls(arm);
            arg_total += pulls;
            if (static_cast<mut::LocalizerChannel>(ch) ==
                mut::LocalizerChannel::Model)
                model += pulls;
        }
    }
    return arg_total == 0
               ? 0.0
               : static_cast<double>(model) /
                     static_cast<double>(arg_total);
}

size_t
DecisionPolicy::bucketOf(const CorpusEntry &entry,
                         uint64_t now_slot) const
{
    const size_t buckets = opts_.seed_buckets;
    if (now_slot == 0)
        return buckets - 1;
    // Admission time relative to the virtual-time clock: bucket 0 holds
    // the campaign's oldest seeds, the last bucket the freshest.
    const uint64_t scaled =
        entry.admitted_at_exec * buckets / now_slot;
    return scaled >= buckets ? buckets - 1
                             : static_cast<size_t>(scaled);
}

void
DecisionPolicy::exportMetrics()
{
    mergeShards();
    uint64_t pulls = 0;
    uint64_t wins = 0;
    const size_t arms = armCount();
    for (size_t a = 0; a < arms; ++a) {
        pulls += mergedPulls(static_cast<int>(a));
        wins += mergedWins(static_cast<int>(a));
    }
    PolicyMetrics &metrics = PolicyMetrics::get();
    metrics.arm_pulls.set(static_cast<double>(pulls));
    metrics.arm_mean_reward.set(
        pulls == 0 ? 0.0
                   : static_cast<double>(wins) /
                         static_cast<double>(pulls));
    metrics.pmm_share.set(pmmShare());
}

std::string
DecisionPolicy::statusJson() const
{
    uint64_t pulls = 0;
    uint64_t wins = 0;
    uint64_t by_channel[mut::kLocalizerChannels] = {0, 0, 0};
    const size_t arms = armCount();
    for (size_t a = 0; a < arms; ++a) {
        const uint64_t p = mergedPulls(static_cast<int>(a));
        pulls += p;
        wins += mergedWins(static_cast<int>(a));
        by_channel[a % mut::kLocalizerChannels] += p;
    }
    std::string out = "{\"kind\":\"";
    out += name();
    out += "\",\"arms\":";
    out += std::to_string(arms);
    out += ",\"pulls\":";
    out += std::to_string(pulls);
    out += ",\"wins\":";
    out += std::to_string(wins);
    out += ",\"mean_reward\":";
    out += std::to_string(
        pulls == 0 ? 0.0
                   : static_cast<double>(wins) /
                         static_cast<double>(pulls));
    out += ",\"pmm_share\":";
    out += std::to_string(pmmShare());
    out += ",\"channel_pulls\":{\"random\":";
    out += std::to_string(by_channel[0]);
    out += ",\"model\":";
    out += std::to_string(by_channel[1]);
    out += ",\"forced_random\":";
    out += std::to_string(by_channel[2]);
    out += "}}";
    return out;
}

StaticPolicy::StaticPolicy(std::shared_ptr<Scheduler> scheduler,
                           PolicyOptions opts)
    : DecisionPolicy(std::move(opts)), scheduler_(std::move(scheduler))
{
    SP_ASSERT(scheduler_ != nullptr, "StaticPolicy needs a scheduler");
}

Decision
StaticPolicy::decide(const DecisionContext &ctx, Rng &rng)
{
    Decision decision;
    decision.seed = &scheduler_->pick(*ctx.corpus, rng);
    decision.seed_bucket = bucketOf(*decision.seed, ctx.now_slot);
    // The §3.4 arbitration draw, in the exact stream position the
    // learned localizers historically drew it (right after the pick,
    // before any localization draw) — and, like them, only drawn when a
    // model is actually installed.
    decision.use_pmm =
        ctx.learned_localizer &&
        !rng.chance(opts_.pmm_fallback_prob);
    return decision;
}

mut::MutationType
StaticPolicy::pickOperator(const DecisionContext &ctx,
                           const Decision & /*decision*/, Rng &rng,
                           const prog::Prog &prog)
{
    return ctx.mutator->selectType(rng, prog);
}

ThompsonPolicy::ThompsonPolicy(PolicyOptions opts)
    : DecisionPolicy(std::move(opts))
{
}

double
ThompsonPolicy::sampleArm(int arm, Rng &rng) const
{
    uint64_t pulls = 0;
    uint64_t wins = 0;
    mergedArm(arm, &pulls, &wins);
    return sampleBeta(rng, opts_.prior_alpha + static_cast<double>(wins),
                      opts_.prior_beta +
                          static_cast<double>(pulls - wins));
}

double
ThompsonPolicy::sampleBucket(size_t bucket, Rng &rng) const
{
    uint64_t pulls = 0;
    uint64_t wins = 0;
    for (size_t op = 0; op < kOpClasses; ++op) {
        for (size_t ch = 0; ch < mut::kLocalizerChannels; ++ch) {
            uint64_t p = 0;
            uint64_t w = 0;
            mergedArm(armFor(bucket,
                             static_cast<mut::MutationType>(op),
                             static_cast<mut::LocalizerChannel>(ch)),
                      &p, &w);
            pulls += p;
            wins += w;
        }
    }
    return sampleBeta(rng, opts_.prior_alpha + static_cast<double>(wins),
                      opts_.prior_beta +
                          static_cast<double>(pulls - wins));
}

Decision
ThompsonPolicy::decide(const DecisionContext &ctx, Rng &rng)
{
    Decision decision;
    const size_t buckets = opts_.seed_buckets;

    // Scheduling: sample every bucket's marginal, mutate inside the
    // winner. Index position (shard-major) stands in for admission age:
    // exact in single-shard corpora, an approximation across shards.
    size_t best = 0;
    double best_theta = -1.0;
    for (size_t b = 0; b < buckets; ++b) {
        const double theta = sampleBucket(b, rng);
        if (theta > best_theta) {
            best_theta = theta;
            best = b;
        }
    }
    const size_t n = ctx.corpus->size();
    const size_t lo = n * best / buckets;
    const size_t hi = n * (best + 1) / buckets;
    if (lo >= hi) {
        // Empty bucket range (tiny corpus): recency-biased fallback.
        decision.seed = &ctx.corpus->pick(rng);
    } else {
        decision.seed =
            &ctx.corpus->entry(lo + rng.below(hi - lo));
    }
    decision.seed_bucket = bucketOf(*decision.seed, ctx.now_slot);

    // Per-seed PMM-vs-random arbitration: posterior duel between the
    // Model and Random channels of this bucket's argument arms.
    // ForcedRandom pulls live in their own channel and bias neither.
    if (ctx.learned_localizer) {
        const double theta_model = sampleArm(
            armFor(decision.seed_bucket,
                   mut::MutationType::ArgumentMutation,
                   mut::LocalizerChannel::Model),
            rng);
        const double theta_random = sampleArm(
            armFor(decision.seed_bucket,
                   mut::MutationType::ArgumentMutation,
                   mut::LocalizerChannel::Random),
            rng);
        decision.use_pmm = theta_model >= theta_random;
    }
    return decision;
}

mut::MutationType
ThompsonPolicy::pickOperator(const DecisionContext &ctx,
                             const Decision &decision, Rng &rng,
                             const prog::Prog &prog)
{
    // Feasibility mirrors Mutator::selectType's constraints.
    const auto &mopts = ctx.mutator->options();
    bool feasible[kOpClasses];
    feasible[opClassIndex(mut::MutationType::ArgumentMutation)] =
        !mut::allArgLocations(prog).empty();
    feasible[opClassIndex(mut::MutationType::CallInsertion)] =
        prog.calls.size() < mopts.max_calls;
    feasible[opClassIndex(mut::MutationType::CallRemoval)] =
        prog.calls.size() > 1;

    int best_op = -1;
    double best_theta = -1.0;
    for (size_t op = 0; op < kOpClasses; ++op) {
        if (!feasible[op])
            continue;
        // Operator marginal over this bucket's channels.
        uint64_t pulls = 0;
        uint64_t wins = 0;
        for (size_t ch = 0; ch < mut::kLocalizerChannels; ++ch) {
            uint64_t p = 0;
            uint64_t w = 0;
            mergedArm(
                armFor(decision.seed_bucket,
                       static_cast<mut::MutationType>(op),
                       static_cast<mut::LocalizerChannel>(ch)),
                &p, &w);
            pulls += p;
            wins += w;
        }
        const double theta = sampleBeta(
            rng, opts_.prior_alpha + static_cast<double>(wins),
            opts_.prior_beta + static_cast<double>(pulls - wins));
        if (theta > best_theta) {
            best_theta = theta;
            best_op = static_cast<int>(op);
        }
    }
    if (best_op < 0)
        return mut::MutationType::ArgumentMutation;  // all no-ops
    return static_cast<mut::MutationType>(best_op);
}

std::shared_ptr<DecisionPolicy>
makePolicy(const FuzzOptions &opts)
{
    if (opts.policy.custom)
        return opts.policy.custom;
    switch (opts.policy.kind) {
      case PolicyKind::Thompson:
        return std::make_shared<ThompsonPolicy>(opts.policy);
      case PolicyKind::Static:
        break;
    }
    return std::make_shared<StaticPolicy>(makeScheduler(opts),
                                          opts.policy);
}

}  // namespace sp::fuzz
