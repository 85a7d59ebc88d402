// Reproduces paper Table 3: new crashes by manifestation category,
// split by whether a syz-repro-style reproducer could be generated.
//
// Paper reference (Table 3, new bug reports):
//   Null pointer dereference        7 / 3
//   Paging fault                   13 / 10
//   Explicit assertion violation    2 / 2
//   General protection fault       28 / 11
//   Out of bounds access            1 / 0
//   Warning                         4 / 4
//   Other                           2 / 0
//   Total                          57 / 30  (66% reproducible)
// Expected shape: serious manifestations dominate; roughly two thirds
// of new crashes get a reproducer (flaky/concurrency-dependent bugs
// resist reproduction).

#include <cstdio>
#include <string>

#include "bench/common.h"
#include "util/stats.h"

int
main()
{
    using namespace sp;
    const uint64_t budget = 7 * 24 * spbench::kHourInExecs / 5;
    std::printf("=== Table 3: new crashes by manifestation (budget "
                "%llu execs, 2 runs) ===\n\n",
                static_cast<unsigned long long>(budget));

    kern::Kernel kernel = spbench::makeEvalKernel("6.8");

    // Merge the two Snowplow runs of the Table-2 campaign.
    fuzz::CrashLog merged(kernel);
    for (uint64_t seed : {101ull, 202ull}) {
        fuzz::CampaignOptions opts;
        opts.fuzz = spbench::evalFuzzOptions(budget, seed);
        auto engine = core::makeSnowplowCampaign(
            kernel, spbench::sharedPmm(), opts,
            spbench::evalSnowplowOptions());
        engine->run();
        engine->crashes().reproduceAll();
        for (const auto &record : engine->crashes().records()) {
            if (record.known)
                continue;
            merged.record(record.bug_index, record.trigger,
                          record.first_seen_exec);
        }
        std::fprintf(stderr, "[table3] seed %llu done\n",
                     static_cast<unsigned long long>(seed));
    }
    merged.reproduceAll();

    static const kern::BugKind kKinds[] = {
        kern::BugKind::NullDeref,
        kern::BugKind::PagingFault,
        kern::BugKind::AssertViolation,
        kern::BugKind::GeneralProtectionFault,
        kern::BugKind::OutOfBounds,
        kern::BugKind::Warning,
        kern::BugKind::Other,
    };

    std::vector<std::vector<std::string>> rows;
    size_t total_with = 0, total_without = 0;
    for (auto kind : kKinds) {
        auto [with_repro, without] = merged.newByKind(kind);
        total_with += with_repro;
        total_without += without;
        rows.push_back({kern::bugKindName(kind),
                        std::to_string(with_repro),
                        std::to_string(without)});
    }
    rows.push_back({"Total", std::to_string(total_with),
                    std::to_string(total_without)});
    std::printf("%s\n",
                formatTable({"Category", "Reproducer: Yes", "No"}, rows)
                    .c_str());

    const double repro_rate =
        total_with + total_without == 0
            ? 0.0
            : 100.0 * static_cast<double>(total_with) /
                  static_cast<double>(total_with + total_without);
    std::printf("reproducibility: %.0f%% (paper: 66%%; Syzbot overall "
                "32%%)\n", repro_rate);
    std::printf("shape check: GPF/paging dominate, most crashes "
                "reproducible, flaky concurrency crashes are not.\n");
    return 0;
}
