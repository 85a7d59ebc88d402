// Reproduces paper Table 2: crashes found during the 7-day campaign.
//
// Snowplow and Syzkaller each fuzz kernel 6.8 for a 7-virtual-day
// budget, twice with different seeds. Crashes are deduplicated and
// split into new vs known (the planted shallow bugs are on the
// continuous-fuzzing known list; the deep ones are not).
//
// Paper reference (Table 2):
//              Snowplow run1/run2   Syzkaller run1/run2
//   New crashes        67 / 46             0 / 0
//   Known crashes      14 / 13             8 / 11
// Expected shape: Snowplow finds many new (deep) crashes, Syzkaller
// finds none or almost none; both find known (shallow) crashes.

#include <cstdio>
#include <string>

#include "bench/common.h"
#include "util/stats.h"

namespace {

struct CampaignTally
{
    size_t new_crashes = 0;
    size_t known_crashes = 0;
};

CampaignTally
runCampaign(const sp::kern::Kernel &kernel, bool snowplow, uint64_t seed,
            uint64_t budget)
{
    sp::fuzz::CampaignOptions opts;
    opts.fuzz = spbench::evalFuzzOptions(budget, seed);
    auto engine = snowplow
                      ? sp::core::makeSnowplowCampaign(
                            kernel, spbench::sharedPmm(), opts,
                            spbench::evalSnowplowOptions())
                      : sp::core::makeSyzkallerCampaign(kernel, opts);
    engine->run();
    CampaignTally tally;
    tally.new_crashes = engine->crashes().newCrashes();
    tally.known_crashes = engine->crashes().knownCrashes();
    std::fprintf(stderr, "[table2] %s seed %llu: %zu new, %zu known\n",
                 snowplow ? "snowplow" : "syzkaller",
                 static_cast<unsigned long long>(seed),
                 tally.new_crashes, tally.known_crashes);
    return tally;
}

}  // namespace

int
main()
{
    using namespace sp;
    // 7 virtual days, scaled down 4x to keep the bench quick; the
    // shape (deep bugs reachable only with learned localization within
    // the budget) is what matters.
    const uint64_t budget = 7 * 24 * spbench::kHourInExecs / 5;
    std::printf("=== Table 2: crashes found during the 7-day campaign "
                "(budget %llu execs) ===\n\n",
                static_cast<unsigned long long>(budget));

    kern::Kernel kernel = spbench::makeEvalKernel("6.8");

    auto snow1 = runCampaign(kernel, true, 101, budget);
    auto snow2 = runCampaign(kernel, true, 202, budget);
    auto syz1 = runCampaign(kernel, false, 101, budget);
    auto syz2 = runCampaign(kernel, false, 202, budget);

    auto s = [](size_t v) { return std::to_string(v); };
    std::printf("%s\n",
                formatTable(
                    {"Status", "Snowplow run1", "Snowplow run2",
                     "Syzkaller run1", "Syzkaller run2"},
                    {{"New Crashes", s(snow1.new_crashes),
                      s(snow2.new_crashes), s(syz1.new_crashes),
                      s(syz2.new_crashes)},
                     {"Known Crashes", s(snow1.known_crashes),
                      s(snow2.known_crashes), s(syz1.known_crashes),
                      s(syz2.known_crashes)},
                     {"Total",
                      s(snow1.new_crashes + snow1.known_crashes),
                      s(snow2.new_crashes + snow2.known_crashes),
                      s(syz1.new_crashes + syz1.known_crashes),
                      s(syz2.new_crashes + syz2.known_crashes)}})
                    .c_str());

    std::printf("paper: Snowplow 67/46 new + 14/13 known; Syzkaller "
                "0/0 new + 8/11 known\n");
    std::printf("shape check: snowplow_new >> syzkaller_new, both find "
                "known crashes -> %s\n",
                (snow1.new_crashes + snow2.new_crashes >
                     3 * (syz1.new_crashes + syz2.new_crashes) &&
                 syz1.known_crashes + syz2.known_crashes > 0)
                    ? "HOLDS"
                    : "CHECK");
    return 0;
}
