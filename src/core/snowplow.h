/**
 * @file
 * Snowplow: the hybrid fuzzer (paper §3.4).
 *
 * PmmLocalizer plugs the trained model into the fuzzing loop's
 * localization step: given a base test and its (cached) coverage, it
 * builds the mutation query with the one-hop alternative frontier as
 * the desired coverage, runs PMM, and returns the arguments whose
 * MUTATE probability clears the threshold (ranked, capped). The §3.4
 * random-fallback arbitration (a small probability of deferring to the
 * random localizer in case PMM misses promising arguments) is a *loop*
 * decision now: the fuzz loop's DecisionPolicy (fuzz/policy.h,
 * `PolicyOptions::pmm_fallback_prob`) chooses model-vs-random per
 * round and passes the verdict into `localizeChosen`. The number of
 * returned sites naturally implements the dynamic mutation count —
 * bases with more promising arguments get more argument mutations.
 *
 * makeSnowplowCampaign / makeSyzkallerCampaign build the two sides of
 * every same-budget comparison in the evaluation.
 */
#ifndef SP_CORE_SNOWPLOW_H
#define SP_CORE_SNOWPLOW_H

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/infer.h"
#include "core/pmm.h"
#include "fuzz/campaign.h"

namespace sp::core {

/** PmmLocalizer configuration. */
struct SnowplowOptions
{
    /** MUTATE probability threshold. */
    float threshold = 0.5f;
    /** Cache capacity for per-base predictions. */
    size_t cache_capacity = 4096;
    /**
     * Optional directed-mode target blocks: when non-empty, only these
     * (where present on the base's frontier) are marked as targets in
     * the query; otherwise the whole frontier is the desired coverage.
     */
    std::vector<uint32_t> directed_targets;
    /**
     * Backend of the localizer's deterministic probe executor (cold
     * bases re-executed for coverage). Campaign factories thread the
     * fuzz loop's choice through so `--exec-backend` governs probe
     * runs too.
     */
    exec::BackendKind exec_backend = exec::BackendKind::Fast;
};

/**
 * Thread-safe prediction cache: base-program hash → ranked site list
 * (the model's output for that base). One cache can be shared by every
 * localizer of a multi-worker campaign so a base ranked by one worker
 * never costs a second forward pass on another. Eviction is the
 * historical wholesale clear at capacity. Lookups feed the
 * `snowplow.cache.hit`/`snowplow.cache.miss` counters and the
 * `snowplow.cache_hit_ratio` gauge.
 */
class PredictionCache
{
  public:
    explicit PredictionCache(size_t capacity);

    /** On hit, copies the cached sites into `out` and returns true. */
    bool lookup(uint64_t key, std::vector<mut::ArgLocation> *out);

    /** Store `sites` for `key`, clearing the cache first when full. */
    void insert(uint64_t key, std::vector<mut::ArgLocation> sites);

    size_t size() const;
    size_t capacity() const { return capacity_; }

    /** @name Lifetime tallies (lock-free reads) */
    /** @{ */
    uint64_t hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }
    uint64_t misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }
    /** Entries dropped by wholesale clears. */
    uint64_t evictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }
    /** @} */

  private:
    const size_t capacity_;
    mutable std::mutex mu_;
    std::unordered_map<uint64_t, std::vector<mut::ArgLocation>> map_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> evictions_{0};
};

/** The learned white-box argument localizer. */
class PmmLocalizer : public mut::Localizer
{
  public:
    /**
     * @param kernel  kernel under test (for graph building and the
     *                deterministic probe executor)
     * @param model   trained PMM (must outlive the localizer)
     * @param opts    thresholds and fallback behaviour
     * @param cache   optional shared prediction cache (campaign
     *                workers pass one cache to every localizer); a
     *                private cache of `opts.cache_capacity` is created
     *                when null
     */
    PmmLocalizer(const kern::Kernel &kernel, const Pmm &model,
                 SnowplowOptions opts = {},
                 std::shared_ptr<PredictionCache> cache = nullptr);

    std::vector<mut::ArgLocation> localize(const prog::Prog &prog,
                                           Rng &rng,
                                           size_t max_sites) override;

    /** Direct model path (no arbitration): rank with PMM. */
    std::vector<mut::ArgLocation>
    localizeWithResult(const prog::Prog &prog,
                       const exec::ExecResult &result, Rng &rng,
                       size_t max_sites) override;

    bool learned() const override { return true; }

    /**
     * Policy-arbitrated localization: `use_model` false takes the
     * random-fallback path (channel Random), true ranks with PMM
     * (channel Model — including the rare cold-model case where PMM
     * returns no sites and one random site stands in, the historical
     * accounting).
     */
    mut::Localization localizeChosen(const prog::Prog &prog,
                                     const exec::ExecResult &result,
                                     Rng &rng, size_t max_sites,
                                     bool use_model) override;

    /** Queries answered by the model (vs fallback). */
    uint64_t modelQueries() const { return model_queries_; }
    uint64_t fallbackQueries() const { return fallback_queries_; }

    /** Entries currently in the (possibly shared) prediction cache. */
    size_t cacheSize() const { return cache_->size(); }
    const PredictionCache &cache() const { return *cache_; }

  private:
    std::vector<mut::ArgLocation>
    rankSites(const prog::Prog &prog, const exec::ExecResult &result,
              Rng &rng, size_t max_sites);

    const kern::Kernel &kernel_;
    const Pmm &model_;
    SnowplowOptions opts_;
    mut::RandomLocalizer fallback_;
    exec::Executor probe_;  ///< deterministic executor for cold bases
    /** prog hash -> ranked site list (model output cache). */
    std::shared_ptr<PredictionCache> cache_;
    /** Encode scratch reused across queries (encodeGraphInto). */
    graph::EncodedGraph encode_scratch_;
    uint64_t model_queries_ = 0;
    uint64_t fallback_queries_ = 0;
};

/**
 * The asynchronous variant of the learned localizer (paper §3.4/§4):
 * queries are submitted to an InferenceService worker pool; while a
 * base's prediction is pending the localizer answers with the random
 * fallback so the fuzz loop never blocks, and once the prediction
 * lands it is cached and used for subsequent mutations of that base —
 * Snowplow "catches up with argument mutations" exactly as the paper's
 * Go worker-pool integration does. Those stand-in answers are reported
 * to the policy as the ForcedRandom channel (`localizeChosen`): the
 * loop *asked* for the model but got random sites, so the outcome must
 * credit neither the model's arm nor the deliberate-random arm.
 */
class AsyncPmmLocalizer : public mut::Localizer
{
  public:
    /**
     * @param kernel   kernel under test
     * @param service  shared inference service (must outlive this)
     * @param opts     thresholds and fallback behaviour
     * @param cache    optional shared prediction cache for landed
     *                 results (one per campaign); private when null
     */
    AsyncPmmLocalizer(const kern::Kernel &kernel,
                      InferenceService &service,
                      SnowplowOptions opts = {},
                      std::shared_ptr<PredictionCache> cache = nullptr);
    ~AsyncPmmLocalizer() override;

    std::vector<mut::ArgLocation> localize(const prog::Prog &prog,
                                           Rng &rng,
                                           size_t max_sites) override;

    /** Direct model path (no arbitration): cached/landed predictions,
     *  random stand-ins while inference is in flight. */
    std::vector<mut::ArgLocation>
    localizeWithResult(const prog::Prog &prog,
                       const exec::ExecResult &result, Rng &rng,
                       size_t max_sites) override;

    bool learned() const override { return true; }

    /**
     * Policy-arbitrated localization. Channels: Random when the policy
     * chose the fallback; Model when a landed/cached prediction
     * answered; ForcedRandom when the model was requested but could
     * not answer (prediction still in flight, first sight of the base,
     * or a base with no argument nodes).
     */
    mut::Localization localizeChosen(const prog::Prog &prog,
                                     const exec::ExecResult &result,
                                     Rng &rng, size_t max_sites,
                                     bool use_model) override;

    /** @name Telemetry */
    /** @{ */
    uint64_t submitted() const { return submitted_; }
    uint64_t answeredFromModel() const { return answered_; }
    uint64_t answeredWhilePending() const { return pending_answers_; }
    /** Entries currently in the (possibly shared) landed cache. */
    size_t cacheSize() const { return ready_->size(); }
    /** @} */

  private:
    struct PendingQuery
    {
        std::future<std::vector<float>> future;
        std::vector<mut::ArgLocation> locations;  ///< decode table
    };

    const kern::Kernel &kernel_;
    InferenceService &service_;
    SnowplowOptions opts_;
    mut::RandomLocalizer fallback_;
    exec::Executor probe_;
    /** In-flight queries. Futures are single-consumer, so this map is
     *  strictly per-localizer (per worker) — only landed results move
     *  into the shared `ready_` cache. */
    std::unordered_map<uint64_t, PendingQuery> pending_;
    std::shared_ptr<PredictionCache> ready_;
    uint64_t submitted_ = 0;
    uint64_t answered_ = 0;
    uint64_t pending_answers_ = 0;
};

/**
 * @name Campaign construction
 *
 * Each worker gets its own localizer instance (private probe executor
 * and encode scratch) while the Snowplow variants share one
 * PredictionCache across workers.
 */
/** @{ */
/** Snowplow = the campaign engine + PmmLocalizer. */
std::unique_ptr<fuzz::CampaignEngine>
makeSnowplowCampaign(const kern::Kernel &kernel, const Pmm &model,
                     fuzz::CampaignOptions campaign_opts,
                     SnowplowOptions snowplow_opts = {});

/** Snowplow with the asynchronous inference pipeline: every worker
 *  owns an AsyncPmmLocalizer bound to `service`. */
std::unique_ptr<fuzz::CampaignEngine>
makeAsyncSnowplowCampaign(const kern::Kernel &kernel,
                          InferenceService &service,
                          fuzz::CampaignOptions campaign_opts,
                          SnowplowOptions snowplow_opts = {});

/** The Syzkaller baseline = the same engine + RandomLocalizer. */
std::unique_ptr<fuzz::CampaignEngine>
makeSyzkallerCampaign(const kern::Kernel &kernel,
                      fuzz::CampaignOptions campaign_opts);
/** @} */

}  // namespace sp::core

#endif  // SP_CORE_SNOWPLOW_H
