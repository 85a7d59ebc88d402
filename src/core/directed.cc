#include "core/directed.h"

#include <algorithm>
#include <deque>

#include "util/logging.h"

namespace sp::core {

std::vector<uint32_t>
distanceToBlock(const kern::Kernel &kernel, uint32_t target)
{
    return distanceToBlocks(kernel, {target});
}

std::vector<uint32_t>
distanceToBlocks(const kern::Kernel &kernel,
                 const std::vector<uint32_t> &targets)
{
    constexpr uint32_t kUnreachable = ~0u;
    std::vector<uint32_t> dist(kernel.blocks().size(), kUnreachable);
    SP_ASSERT(!targets.empty());

    // Predecessor lists from the static CFG.
    std::vector<std::vector<uint32_t>> preds(kernel.blocks().size());
    for (auto [from, to] : kernel.staticEdges())
        preds[to].push_back(from);

    // Multi-source BFS: every target seeds the queue at distance 0,
    // so dist[b] is the distance to the nearest target.
    std::deque<uint32_t> queue;
    for (const uint32_t target : targets) {
        SP_ASSERT(target < kernel.blocks().size());
        if (dist[target] != 0) {
            dist[target] = 0;
            queue.push_back(target);
        }
    }
    while (!queue.empty()) {
        const uint32_t block = queue.front();
        queue.pop_front();
        for (uint32_t pred : preds[block]) {
            if (dist[pred] == kUnreachable) {
                dist[pred] = dist[block] + 1;
                queue.push_back(pred);
            }
        }
    }
    return dist;
}

/** The distance-guided base pick on the campaign scheduler seam. */
class DistanceScheduler : public fuzz::Scheduler
{
  public:
    explicit DistanceScheduler(std::vector<uint32_t> distances)
        : distances_(std::move(distances))
    {
    }

    const fuzz::CorpusEntry &
    pick(const fuzz::Corpus &corpus, Rng &rng) override
    {
        // Snapshot the size once: concurrent workers may grow the
        // corpus mid-loop, and both the weight vector and the final
        // index must stay inside one consistent bound. Entries are
        // never removed, so indices below `n` remain valid; the
        // shard-major index→entry mapping may shift under concurrent
        // admissions (a documented momentary-handle caveat), which
        // only perturbs which frontier entry a weight lands on.
        const size_t n = corpus.size();
        SP_ASSERT(n > 0);
        std::vector<double> weights(n);
        for (size_t i = 0; i < n; ++i) {
            uint32_t best = ~0u;
            for (uint32_t block :
                 corpus.entry(i).result.coverage.blocks()) {
                if (block < distances_.size())
                    best = std::min(best, distances_[block]);
            }
            // Entries at the frontier of the target dominate; entries
            // that cannot reach it at all keep a small exploration mass.
            weights[i] = best == ~0u
                             ? 0.05
                             : 1.0 / (1.0 + static_cast<double>(best) *
                                                static_cast<double>(best));
        }
        return corpus.entry(rng.weightedIndex(weights));
    }

  private:
    const std::vector<uint32_t> distances_;
};

std::shared_ptr<fuzz::Scheduler>
makeDistanceScheduler(const kern::Kernel &kernel,
                      const std::vector<uint32_t> &targets)
{
    return std::make_shared<DistanceScheduler>(
        distanceToBlocks(kernel, targets));
}

namespace {

/** The directed campaign: `opts.fuzz` with the directed budget and
 *  seed, steered by the distance scheduler over `targets`. */
fuzz::CampaignOptions
directedCampaign(const kern::Kernel &kernel, const DirectedOptions &opts,
                 const std::vector<uint32_t> &targets)
{
    fuzz::CampaignOptions campaign;
    campaign.fuzz = opts.fuzz;
    campaign.fuzz.exec_budget = opts.exec_budget;
    campaign.fuzz.seed = opts.seed;
    campaign.fuzz.scheduler = makeDistanceScheduler(kernel, targets);
    return campaign;
}

bool
coversAll(const fuzz::Corpus &corpus,
          const std::vector<uint32_t> &targets)
{
    return std::all_of(targets.begin(), targets.end(),
                       [&corpus](uint32_t target) {
                           return corpus.coversBlock(target);
                       });
}

/** Run a 1-worker directed campaign until it covers every target or
 *  spends its budget. */
fuzz::FuzzReport
runToTargets(fuzz::CampaignEngine &engine,
             const std::vector<uint32_t> &targets)
{
    return engine.runUntil(
        [&targets](const fuzz::CampaignEngine &running) {
            return coversAll(running.corpus(), targets);
        });
}

DirectedResult
singleTargetResult(const fuzz::CampaignEngine &engine,
                   const fuzz::FuzzReport &report, uint32_t target)
{
    DirectedResult result;
    result.reached = coversAll(engine.corpus(), {target});
    result.execs_total = report.execs;
    result.execs_to_reach = result.reached ? report.execs : 0;
    return result;
}

}  // namespace

DirectedResult
runSyzDirect(const kern::Kernel &kernel, const DirectedOptions &opts)
{
    const std::vector<uint32_t> targets = {opts.target_block};
    auto engine = makeSyzkallerCampaign(
        kernel, directedCampaign(kernel, opts, targets));
    const auto report = runToTargets(*engine, targets);
    return singleTargetResult(*engine, report, opts.target_block);
}

DirectedResult
runSnowplowD(const kern::Kernel &kernel, const Pmm &model,
             const DirectedOptions &opts)
{
    const std::vector<uint32_t> targets = {opts.target_block};
    SnowplowOptions snowplow_opts;
    snowplow_opts.directed_targets = targets;
    auto engine = makeSnowplowCampaign(
        kernel, model, directedCampaign(kernel, opts, targets),
        std::move(snowplow_opts));
    const auto report = runToTargets(*engine, targets);
    return singleTargetResult(*engine, report, opts.target_block);
}

MultiDirectedResult
runSnowplowD(const kern::Kernel &kernel, const Pmm &model,
             const std::vector<uint32_t> &targets,
             const DirectedOptions &opts)
{
    SP_ASSERT(!targets.empty());
    SnowplowOptions snowplow_opts;
    snowplow_opts.directed_targets = targets;
    auto engine = makeSnowplowCampaign(
        kernel, model, directedCampaign(kernel, opts, targets),
        std::move(snowplow_opts));
    const auto report = runToTargets(*engine, targets);

    MultiDirectedResult result;
    result.execs_total = report.execs;
    for (const uint32_t target : targets) {
        if (engine->corpus().coversBlock(target))
            result.reached.push_back(target);
    }
    return result;
}

}  // namespace sp::core
