/**
 * @file
 * Argument-mutation localization (the paper's intervention point).
 *
 * When the mutation-type selector picks ARGUMENT_MUTATION, a Localizer
 * decides *which* arguments of the base test to mutate. The baseline
 * (Syzkaller-style) localizer picks semi-randomly, weighted toward calls
 * with more arguments; Snowplow's PMM-backed localizer (src/core) makes
 * this decision with a learned model given the desired coverage.
 */
#ifndef SP_MUTATE_LOCALIZER_H
#define SP_MUTATE_LOCALIZER_H

#include <cstddef>
#include <vector>

#include "exec/executor.h"
#include "prog/flatten.h"
#include "prog/value.h"
#include "util/rng.h"

namespace sp::mut {

/** One localized mutation site: a mutable argument of one call. */
struct ArgLocation
{
    size_t call_index = 0;
    prog::MutationPoint point;
};

/** Every mutable argument of the program, in program order. */
std::vector<ArgLocation> allArgLocations(const prog::Prog &prog);

/** Same as `!allArgLocations(prog).empty()`, stopping at the first. */
bool hasArgLocation(const prog::Prog &prog);

/**
 * Which mechanism actually produced a round's localization. The fuzz
 * loop's decision policy arbitrates model-vs-random *up front*
 * (fuzz/policy.h), but an asynchronous learned localizer can still be
 * forced onto the random fallback while a prediction is in flight —
 * that outcome is reported as ForcedRandom so reward accounting never
 * credits (or blames) the model for sites it did not choose.
 */
enum class LocalizerChannel : uint8_t {
    Random = 0,       ///< the random fallback, chosen by the policy
    Model = 1,        ///< the learned model answered
    ForcedRandom = 2  ///< model requested but unavailable (async miss)
};

/** Number of LocalizerChannel values (dense arm-axis size). */
constexpr size_t kLocalizerChannels = 3;

/** Sites plus the channel that produced them. */
struct Localization
{
    std::vector<ArgLocation> sites;
    LocalizerChannel channel = LocalizerChannel::Random;
};

/** Chooses argument-mutation sites for a base test. */
class Localizer
{
  public:
    virtual ~Localizer() = default;

    /**
     * Pick up to `max_sites` distinct argument sites of `prog` to
     * mutate. May return fewer (or none, when the program has no
     * mutable arguments).
     */
    virtual std::vector<ArgLocation> localize(const prog::Prog &prog,
                                              Rng &rng,
                                              size_t max_sites) = 0;

    /**
     * Localization with the base test's execution result available
     * (the fuzzing loop caches it with the corpus entry). White-box
     * localizers override this to read the coverage; the default
     * ignores it.
     */
    virtual std::vector<ArgLocation>
    localizeWithResult(const prog::Prog &prog,
                       const exec::ExecResult & /*result*/, Rng &rng,
                       size_t max_sites)
    {
        return localize(prog, rng, max_sites);
    }

    /** True for localizers backed by a learned model — the decision
     *  policy only arbitrates model-vs-random for these. */
    virtual bool learned() const { return false; }

    /**
     * Localization with the model-vs-random choice made by the caller
     * (the campaign's DecisionPolicy). `use_model` is advisory: a
     * localizer without a model ignores it, and an async learned
     * localizer may be unable to honor it — the returned channel
     * reports what actually happened. The default adapts plain
     * localizers: `use_model` is ignored and the channel is Random.
     */
    virtual Localization
    localizeChosen(const prog::Prog &prog,
                   const exec::ExecResult &result, Rng &rng,
                   size_t max_sites, bool /*use_model*/)
    {
        return {localizeWithResult(prog, result, rng, max_sites),
                LocalizerChannel::Random};
    }
};

/**
 * The Syzkaller-default localizer: samples arguments uniformly from the
 * call with the largest arity (with probability `arity_bias`) or from
 * the whole program otherwise — target-agnostic randomness.
 */
class RandomLocalizer : public Localizer
{
  public:
    explicit RandomLocalizer(double arity_bias = 0.5)
        : arity_bias_(arity_bias)
    {
    }

    std::vector<ArgLocation> localize(const prog::Prog &prog, Rng &rng,
                                      size_t max_sites) override;

  private:
    double arity_bias_;
};

}  // namespace sp::mut

#endif  // SP_MUTATE_LOCALIZER_H
