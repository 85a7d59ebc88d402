// Reproduces paper Table 5: directed kernel fuzzing.
//
// For a set of target code locations (the planted deep-bug blocks plus
// some shallow handler blocks, mirroring the SyzDirect bug dataset),
// runs SyzDirect and Snowplow-D for up to a 24-virtual-hour budget,
// 5 repeats each, and reports mean time-to-target (in executions),
// success rates, per-target speedups and the aggregate speedup over
// the commonly-reached targets.
//
// Paper reference (Table 5): SyzDirect reaches 19/24 targets,
// Snowplow-D reaches those plus 2 more; aggregate speedup 8.5x on the
// hard targets, ~1x on easy entry-point targets, and some targets
// remain unreached by both.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/directed.h"
#include "util/stats.h"

namespace {

constexpr int kRepeats = 3;

struct TargetOutcome
{
    uint32_t block = 0;
    std::string location;
    int syzdirect_successes = 0;
    int learned_successes = 0;
    double syzdirect_mean = 0.0;  ///< over successful runs
    double learned_mean = 0.0;
};

}  // namespace

int
main()
{
    using namespace sp;
    const uint64_t budget = spbench::kDayInExecs / 2;
    std::printf("=== Table 5: directed fuzzing, SyzDirect vs Snowplow-D "
                "(%d repeats, budget %llu) ===\n\n",
                kRepeats, static_cast<unsigned long long>(budget));

    kern::Kernel kernel = spbench::makeEvalKernel("6.8");
    const core::Pmm &model = spbench::sharedPmm();

    // Targets: deep bug blocks (hard) plus a few depth-1 blocks (easy,
    // the paper's entry-point-adjacent locations).
    std::vector<std::pair<uint32_t, std::string>> targets;
    for (const auto &bug : kernel.bugs()) {
        if (!bug.known && targets.size() < 7)
            targets.emplace_back(bug.block, bug.location);
    }
    size_t easy = 0;
    for (const auto &bb : kernel.blocks()) {
        if (easy >= 3)
            break;
        if (bb.depth == 1 && kernel.bugAt(bb.id) == nullptr &&
            bb.id % 7 == 0) {
            targets.emplace_back(
                bb.id, "entry-adjacent block " + std::to_string(bb.id));
            ++easy;
        }
    }

    std::vector<TargetOutcome> outcomes;
    for (const auto &[block, location] : targets) {
        TargetOutcome outcome;
        outcome.block = block;
        outcome.location = location;
        double base_total = 0.0, learned_total = 0.0;
        for (int r = 0; r < kRepeats; ++r) {
            core::DirectedOptions opts;
            opts.target_block = block;
            opts.exec_budget = budget;
            opts.seed = 31 + static_cast<uint64_t>(r);

            auto baseline = core::runSyzDirect(kernel, opts);
            if (baseline.reached) {
                ++outcome.syzdirect_successes;
                base_total +=
                    static_cast<double>(baseline.execs_to_reach);
            }
            auto learned = core::runSnowplowD(kernel, model, opts);
            if (learned.reached) {
                ++outcome.learned_successes;
                learned_total +=
                    static_cast<double>(learned.execs_to_reach);
            }
        }
        if (outcome.syzdirect_successes > 0)
            outcome.syzdirect_mean =
                base_total / outcome.syzdirect_successes;
        if (outcome.learned_successes > 0)
            outcome.learned_mean =
                learned_total / outcome.learned_successes;
        outcomes.push_back(outcome);
        std::fprintf(stderr, "[table5] block %u: base %d/%d, learned "
                     "%d/%d\n", block, outcome.syzdirect_successes,
                     kRepeats, outcome.learned_successes, kRepeats);
    }

    // Sort: biggest speedups first, then NA rows (like the paper).
    std::stable_sort(outcomes.begin(), outcomes.end(),
                     [](const TargetOutcome &a, const TargetOutcome &b) {
                         auto key = [](const TargetOutcome &o) {
                             if (o.syzdirect_successes == 0 &&
                                 o.learned_successes > 0)
                                 return 1e18;  // INF speedup first
                             if (o.learned_successes == 0)
                                 return -1.0;  // NA rows last
                             return o.syzdirect_mean /
                                    std::max(o.learned_mean, 1.0);
                         };
                         return key(a) > key(b);
                     });

    std::vector<std::vector<std::string>> rows;
    double subtotal_base = 0.0, subtotal_learned = 0.0;
    int both_reached = 0;
    for (const auto &outcome : outcomes) {
        auto cell = [&](int successes, double mean) {
            if (successes == 0)
                return std::string("NA (0/") + std::to_string(kRepeats) +
                       ")";
            char buf[48];
            std::snprintf(buf, sizeof(buf), "%.0f (%d/%d)", mean,
                          successes, kRepeats);
            return std::string(buf);
        };
        std::string speedup = "NA";
        if (outcome.syzdirect_successes > 0 &&
            outcome.learned_successes > 0) {
            char buf[16];
            std::snprintf(buf, sizeof(buf), "%.1f",
                          outcome.syzdirect_mean /
                              std::max(outcome.learned_mean, 1.0));
            speedup = buf;
            subtotal_base += outcome.syzdirect_mean;
            subtotal_learned += outcome.learned_mean;
            ++both_reached;
        } else if (outcome.learned_successes > 0) {
            speedup = "INF";
        }
        rows.push_back({outcome.location,
                        cell(outcome.syzdirect_successes,
                             outcome.syzdirect_mean),
                        cell(outcome.learned_successes,
                             outcome.learned_mean),
                        speedup});
    }
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.1f",
                      subtotal_base / std::max(subtotal_learned, 1.0));
        rows.push_back({"Subtotal (both reached)",
                        std::to_string(
                            static_cast<uint64_t>(subtotal_base)),
                        std::to_string(
                            static_cast<uint64_t>(subtotal_learned)),
                        buf});
    }
    std::printf("%s\n",
                formatTable({"Target location", "SyzDirect",
                             "Snowplow-D", "Speedup"},
                            rows)
                    .c_str());

    int base_reached = 0, learned_reached = 0;
    for (const auto &outcome : outcomes) {
        base_reached += (outcome.syzdirect_successes > 0);
        learned_reached += (outcome.learned_successes > 0);
    }
    std::printf("targets reached: SyzDirect %d/%zu, Snowplow-D %d/%zu "
                "(paper: 19 vs 21 of 24)\n",
                base_reached, outcomes.size(), learned_reached,
                outcomes.size());
    std::printf("aggregate speedup on %d common targets: %.1fx "
                "(paper: 8.5x)\n",
                both_reached,
                subtotal_base / std::max(subtotal_learned, 1.0));
    std::printf("shape check: big speedups on deep targets, ~1x on "
                "entry-adjacent targets, extra targets only "
                "Snowplow-D reaches.\n");
    return 0;
}
