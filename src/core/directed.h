/**
 * @file
 * Directed kernel fuzzing (paper §5.4).
 *
 * SyzDirect's essence is reproduced as a distance-guided campaign: a
 * static reverse-BFS distance map from the target block over the
 * kernel CFG drives the campaign's Scheduler (corpus entries whose
 * coverage sits closest to the target are mutated preferentially), and
 * a 1-worker CampaignEngine::runUntil stops the moment the target
 * block is covered. Snowplow-D is the same campaign with the PMM
 * localizer in directed mode: the query marks the target block (when
 * it reaches the one-hop frontier) as the desired coverage, so argument
 * selection is steered toward the branch guarding the target.
 */
#ifndef SP_CORE_DIRECTED_H
#define SP_CORE_DIRECTED_H

#include <cstdint>
#include <vector>

#include "core/snowplow.h"

namespace sp::core {

/** Directed-campaign configuration. */
struct DirectedOptions
{
    uint32_t target_block = 0;
    uint64_t exec_budget = 30000;  ///< the 24-hour cap analog
    uint64_t seed = 1;
    fuzz::FuzzOptions fuzz;        ///< base loop options (budget/seed set
                                   ///  from the fields above)
};

/** Outcome of one directed run. */
struct DirectedResult
{
    bool reached = false;
    uint64_t execs_to_reach = 0;  ///< executions when first covered
    uint64_t execs_total = 0;
};

/** Outcome of a multi-target directed run (cold-frontier target sets
 *  derived by `snowplow_cli analyze`). */
struct MultiDirectedResult
{
    std::vector<uint32_t> reached;  ///< targets covered when stopped
    uint64_t execs_total = 0;
};

/**
 * Distance (in CFG edges) from every block to `target`; kNoBlock-like
 * ~0u marks blocks that cannot reach it.
 */
std::vector<uint32_t> distanceToBlock(const kern::Kernel &kernel,
                                      uint32_t target);

/**
 * Multi-source variant: distance from every block to the *nearest* of
 * `targets` (the reverse BFS starts from all of them at distance 0).
 * This is how a ranked cold-frontier set steers one campaign toward
 * many targets at once.
 */
std::vector<uint32_t> distanceToBlocks(
    const kern::Kernel &kernel, const std::vector<uint32_t> &targets);

/**
 * Distance-guided base scheduler: corpus entries whose coverage sits
 * closest to the nearest of `targets` (by static reverse-BFS distance)
 * get most of the pick mass. Stateless after construction, so safe to
 * share across campaign workers.
 */
std::shared_ptr<fuzz::Scheduler>
makeDistanceScheduler(const kern::Kernel &kernel,
                      const std::vector<uint32_t> &targets);

/** Run the SyzDirect baseline toward one target. */
DirectedResult runSyzDirect(const kern::Kernel &kernel,
                            const DirectedOptions &opts);

/** Run Snowplow-D (SyzDirect + PMM localization) toward one target. */
DirectedResult runSnowplowD(const kern::Kernel &kernel, const Pmm &model,
                            const DirectedOptions &opts);

/**
 * Run Snowplow-D toward a whole target set (opts.target_block is
 * ignored): the scheduler steers by nearest-target distance, the PMM
 * query marks every frontier target, and the run stops once all
 * targets are covered or the budget ends. Returns which targets were
 * reached.
 */
MultiDirectedResult runSnowplowD(const kern::Kernel &kernel,
                                 const Pmm &model,
                                 const std::vector<uint32_t> &targets,
                                 const DirectedOptions &opts);

}  // namespace sp::core

#endif  // SP_CORE_DIRECTED_H
