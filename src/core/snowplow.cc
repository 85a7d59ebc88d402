#include "core/snowplow.h"

#include <algorithm>
#include <chrono>

#include "graph/encode.h"
#include "graph/query_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace sp::core {

namespace {

/** Registry handles for the localizer cache (looked up once). The
 *  family is process-scoped: it lives in the global registry and is
 *  never reset, so the hit ratio covers every campaign in the process. */
struct LocalizerMetrics
{
    obs::Counter &cache_hits;
    obs::Counter &cache_misses;
    obs::Counter &async_submitted;
    obs::Counter &async_ready;
    obs::Counter &async_pending;
    obs::Gauge &cache_hit_ratio;

    static LocalizerMetrics &
    get()
    {
        auto &reg = obs::Registry::global();
        static LocalizerMetrics metrics{
            reg.counter("snowplow.cache.hit"),
            reg.counter("snowplow.cache.miss"),
            reg.counter("snowplow.async.submitted"),
            reg.counter("snowplow.async.ready_hit"),
            reg.counter("snowplow.async.pending_fallback"),
            reg.gauge("snowplow.cache_hit_ratio"),
        };
        return metrics;
    }

    void
    countLookup(bool hit)
    {
        (hit ? cache_hits : cache_misses).inc();
        const double total = static_cast<double>(cache_hits.value() +
                                                 cache_misses.value());
        cache_hit_ratio.set(static_cast<double>(cache_hits.value()) /
                            total);
    }
};

/** Rank above-threshold argument sites by probability. */
std::vector<mut::ArgLocation>
rankFromProbs(const std::vector<float> &probs,
              const std::vector<mut::ArgLocation> &locations,
              float threshold, size_t cap)
{
    SP_ASSERT(probs.size() == locations.size());
    std::vector<size_t> order;
    for (size_t i = 0; i < probs.size(); ++i)
        if (probs[i] >= threshold)
            order.push_back(i);
    if (order.empty() && !probs.empty()) {
        size_t best = 0;
        for (size_t i = 1; i < probs.size(); ++i)
            if (probs[i] > probs[best])
                best = i;
        order.push_back(best);
    }
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return probs[a] > probs[b]; });
    if (order.size() > cap)
        order.resize(cap);
    std::vector<mut::ArgLocation> sites;
    sites.reserve(order.size());
    for (size_t i : order)
        sites.push_back(locations[i]);
    return sites;
}

/** Build the mutation query for a base, directed targets honored. */
graph::QueryGraph
buildQueryFor(const kern::Kernel &kernel, const prog::Prog &prog,
              const exec::ExecResult &result,
              const std::vector<uint32_t> &directed_targets)
{
    auto frontier = graph::alternativeFrontier(kernel, result.coverage);
    std::vector<uint32_t> targets;
    if (directed_targets.empty()) {
        targets = std::move(frontier);
    } else {
        for (uint32_t t : directed_targets) {
            if (std::find(frontier.begin(), frontier.end(), t) !=
                frontier.end()) {
                targets.push_back(t);
            }
        }
        if (targets.empty())
            targets = std::move(frontier);
    }
    return graph::buildQueryGraph(kernel, prog, result, targets);
}

}  // namespace

PredictionCache::PredictionCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
}

bool
PredictionCache::lookup(uint64_t key, std::vector<mut::ArgLocation> *out)
{
    bool hit = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (auto it = map_.find(key); it != map_.end()) {
            hit = true;
            if (out != nullptr)
                *out = it->second;
        }
    }
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    LocalizerMetrics::get().countLookup(hit);
    return hit;
}

void
PredictionCache::insert(uint64_t key, std::vector<mut::ArgLocation> sites)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (map_.size() >= capacity_ && map_.find(key) == map_.end()) {
        // Simple wholesale eviction, as the original per-fuzzer cache.
        evictions_.fetch_add(map_.size(), std::memory_order_relaxed);
        map_.clear();
    }
    map_[key] = std::move(sites);
}

size_t
PredictionCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

PmmLocalizer::PmmLocalizer(const kern::Kernel &kernel, const Pmm &model,
                           SnowplowOptions opts,
                           std::shared_ptr<PredictionCache> cache)
    : kernel_(kernel), model_(model), opts_(std::move(opts)),
      // Deterministic probe executor on the fuzz loop's exec backend.
      probe_(kernel, exec::ExecOptions{true, 0, opts_.exec_backend}),
      cache_(cache ? std::move(cache)
                   : std::make_shared<PredictionCache>(
                         opts_.cache_capacity))
{
}

std::vector<mut::ArgLocation>
PmmLocalizer::localize(const prog::Prog &prog, Rng &rng, size_t max_sites)
{
    // No cached coverage supplied: probe deterministically.
    auto result = probe_.run(prog);
    return localizeWithResult(prog, result, rng, max_sites);
}

std::vector<mut::ArgLocation>
PmmLocalizer::localizeWithResult(const prog::Prog &prog,
                                 const exec::ExecResult &result, Rng &rng,
                                 size_t max_sites)
{
    return localizeChosen(prog, result, rng, max_sites,
                          /*use_model=*/true)
        .sites;
}

mut::Localization
PmmLocalizer::localizeChosen(const prog::Prog &prog,
                             const exec::ExecResult &result, Rng &rng,
                             size_t max_sites, bool use_model)
{
    if (!use_model) {
        // The policy deferred to the random localizer (§3.4).
        ++fallback_queries_;
        return {fallback_.localize(prog, rng,
                                   std::max<size_t>(1, max_sites / 2)),
                mut::LocalizerChannel::Random};
    }
    ++model_queries_;

    const uint64_t key = prog.hash();
    std::vector<mut::ArgLocation> sites;
    if (!cache_->lookup(key, &sites)) {
        sites = rankSites(prog, result, rng, max_sites);
        cache_->insert(key, sites);
    }
    if (sites.size() > max_sites)
        sites.resize(max_sites);
    if (sites.empty()) {
        // Historical accounting: a model query that yielded nothing
        // still counts as a model round, one random site standing in.
        return {fallback_.localize(prog, rng, 1),
                mut::LocalizerChannel::Model};
    }
    return {std::move(sites), mut::LocalizerChannel::Model};
}

std::vector<mut::ArgLocation>
PmmLocalizer::rankSites(const prog::Prog &prog,
                        const exec::ExecResult &result, Rng &rng,
                        size_t max_sites)
{
    (void)rng;
    auto query = buildQueryFor(kernel_, prog, result,
                               opts_.directed_targets);
    if (query.argument_nodes.empty())
        return {};
    graph::encodeGraphInto(kernel_, query, encode_scratch_);
    const auto probs = model_.predict(encode_scratch_);
    // Cache a little extra headroom beyond the caller's cap.
    return rankFromProbs(probs, query.argument_locations,
                         opts_.threshold, max_sites * 2);
}

AsyncPmmLocalizer::AsyncPmmLocalizer(const kern::Kernel &kernel,
                                     InferenceService &service,
                                     SnowplowOptions opts,
                                     std::shared_ptr<PredictionCache> cache)
    : kernel_(kernel), service_(service), opts_(std::move(opts)),
      probe_(kernel, exec::ExecOptions{true, 0, opts_.exec_backend}),
      ready_(cache ? std::move(cache)
                   : std::make_shared<PredictionCache>(
                         opts_.cache_capacity))
{
}

AsyncPmmLocalizer::~AsyncPmmLocalizer()
{
    // Drain outstanding futures so the service's promises are consumed.
    for (auto &[hash, pending] : pending_) {
        (void)hash;
        if (pending.future.valid())
            pending.future.wait();
    }
}

std::vector<mut::ArgLocation>
AsyncPmmLocalizer::localize(const prog::Prog &prog, Rng &rng,
                            size_t max_sites)
{
    auto result = probe_.run(prog);
    return localizeWithResult(prog, result, rng, max_sites);
}

std::vector<mut::ArgLocation>
AsyncPmmLocalizer::localizeWithResult(const prog::Prog &prog,
                                      const exec::ExecResult &result,
                                      Rng &rng, size_t max_sites)
{
    return localizeChosen(prog, result, rng, max_sites,
                          /*use_model=*/true)
        .sites;
}

mut::Localization
AsyncPmmLocalizer::localizeChosen(const prog::Prog &prog,
                                  const exec::ExecResult &result,
                                  Rng &rng, size_t max_sites,
                                  bool use_model)
{
    if (!use_model) {
        // The policy deferred to the random localizer (§3.4).
        return {fallback_.localize(prog, rng,
                                   std::max<size_t>(1, max_sites / 2)),
                mut::LocalizerChannel::Random};
    }

    const uint64_t key = prog.hash();
    if (std::vector<mut::ArgLocation> sites;
        ready_->lookup(key, &sites)) {
        ++answered_;
        LocalizerMetrics::get().async_ready.inc();
        if (sites.size() > max_sites)
            sites.resize(max_sites);
        if (sites.empty()) {
            return {fallback_.localize(prog, rng, 1),
                    mut::LocalizerChannel::Model};
        }
        return {std::move(sites), mut::LocalizerChannel::Model};
    }

    if (auto it = pending_.find(key); it != pending_.end()) {
        if (it->second.future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
            const auto probs = it->second.future.get();
            auto sites =
                probs.empty()
                    ? std::vector<mut::ArgLocation>{}
                    : rankFromProbs(probs, it->second.locations,
                                    opts_.threshold, max_sites * 2);
            ready_->insert(key, sites);
            pending_.erase(it);
            // Use the ranked sites directly rather than re-entering
            // the counted cache lookup: the landing itself must not
            // skew the snowplow.cache.* hit/miss telemetry.
            ++answered_;
            LocalizerMetrics::get().async_ready.inc();
            if (sites.size() > max_sites)
                sites.resize(max_sites);
            if (sites.empty()) {
                return {fallback_.localize(prog, rng, 1),
                        mut::LocalizerChannel::Model};
            }
            return {std::move(sites), mut::LocalizerChannel::Model};
        }
        // Inference still in flight: let the loop do other mutations.
        // The model was *asked for* but could not answer — a forced
        // random round, reported as its own channel so the reward
        // neither credits the model nor the deliberate fallback.
        ++pending_answers_;
        LocalizerMetrics::get().async_pending.inc();
        return {fallback_.localize(prog, rng, 1),
                mut::LocalizerChannel::ForcedRandom};
    }

    // First sight of this base: submit the query asynchronously. Until
    // it lands, answers are forced-random too.
    auto query = buildQueryFor(kernel_, prog, result,
                               opts_.directed_targets);
    if (query.argument_nodes.empty()) {
        return {fallback_.localize(prog, rng, 1),
                mut::LocalizerChannel::ForcedRandom};
    }
    PendingQuery pending;
    pending.locations = std::move(query.argument_locations);
    // Hand the worker's pipeline trace id across the thread boundary:
    // the service stamps this request's queue-wait and batch spans
    // with it, keeping the round's trace intact through the hop.
    pending.future = service_.submit(graph::encodeGraph(kernel_, query),
                                     obs::currentTraceId());
    pending_.emplace(key, std::move(pending));
    ++submitted_;
    ++pending_answers_;
    LocalizerMetrics::get().async_submitted.inc();
    return {fallback_.localize(prog, rng, 1),
            mut::LocalizerChannel::ForcedRandom};
}

std::unique_ptr<fuzz::CampaignEngine>
makeSnowplowCampaign(const kern::Kernel &kernel, const Pmm &model,
                     fuzz::CampaignOptions campaign_opts,
                     SnowplowOptions snowplow_opts)
{
    snowplow_opts.exec_backend = campaign_opts.fuzz.exec_backend;
    auto cache = std::make_shared<PredictionCache>(
        snowplow_opts.cache_capacity);
    auto factory = [&kernel, &model, snowplow_opts,
                    cache](size_t) -> std::unique_ptr<mut::Localizer> {
        return std::make_unique<PmmLocalizer>(kernel, model,
                                              snowplow_opts, cache);
    };
    return std::make_unique<fuzz::CampaignEngine>(
        kernel, std::move(campaign_opts), factory);
}

std::unique_ptr<fuzz::CampaignEngine>
makeAsyncSnowplowCampaign(const kern::Kernel &kernel,
                          InferenceService &service,
                          fuzz::CampaignOptions campaign_opts,
                          SnowplowOptions snowplow_opts)
{
    snowplow_opts.exec_backend = campaign_opts.fuzz.exec_backend;
    auto cache = std::make_shared<PredictionCache>(
        snowplow_opts.cache_capacity);
    auto factory = [&kernel, &service, snowplow_opts,
                    cache](size_t) -> std::unique_ptr<mut::Localizer> {
        return std::make_unique<AsyncPmmLocalizer>(
            kernel, service, snowplow_opts, cache);
    };
    return std::make_unique<fuzz::CampaignEngine>(
        kernel, std::move(campaign_opts), factory);
}

std::unique_ptr<fuzz::CampaignEngine>
makeSyzkallerCampaign(const kern::Kernel &kernel,
                      fuzz::CampaignOptions campaign_opts)
{
    auto factory = [](size_t) -> std::unique_ptr<mut::Localizer> {
        return std::make_unique<mut::RandomLocalizer>();
    };
    return std::make_unique<fuzz::CampaignEngine>(
        kernel, std::move(campaign_opts), factory);
}

}  // namespace sp::core
