// Crash-triage demo (paper §5.3.2): run a longer campaign, deduplicate
// crashes, attempt syz-repro-style reproduction and minimization, and
// print the Table-3-style manifestation breakdown plus per-crash
// reports with reproducers.
//
//   $ ./crash_triage [pmm_checkpoint] [budget]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/snowplow.h"
#include "kernel/subsystems.h"
#include "nn/serialize.h"
#include "prog/serialize.h"

int
main(int argc, char **argv)
{
    using namespace sp;

    const std::string ckpt = argc > 1 ? argv[1] : "/tmp/pmm.ckpt";
    const uint64_t budget =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 60000;

    kern::KernelGenParams params;
    params.seed = 2024;
    params.version = "6.8";
    kern::Kernel kernel = kern::buildBaseKernel(params);

    core::Pmm model;
    const bool trained = nn::loadParameters(model, ckpt);
    std::printf("%s\n", trained
                            ? "fuzzing with Snowplow (trained PMM)"
                            : "no checkpoint found; run ./train_pmm "
                              "first — falling back to the baseline");

    fuzz::CampaignOptions opts;
    opts.fuzz.exec_budget = budget;
    opts.fuzz.seed = 7;
    opts.fuzz.checkpoint_every = budget / 8;
    auto engine = trained
                      ? core::makeSnowplowCampaign(kernel, model, opts)
                      : core::makeSyzkallerCampaign(kernel, opts);
    const auto report = engine->run();

    auto &log = engine->crashes();
    log.reproduceAll();
    std::printf("\ncampaign: %llu executions, %zu unique crashes "
                "(%zu new, %zu known)\n",
                static_cast<unsigned long long>(report.execs),
                log.uniqueCrashes(), log.newCrashes(),
                log.knownCrashes());

    static const kern::BugKind kKinds[] = {
        kern::BugKind::NullDeref,
        kern::BugKind::PagingFault,
        kern::BugKind::AssertViolation,
        kern::BugKind::GeneralProtectionFault,
        kern::BugKind::OutOfBounds,
        kern::BugKind::Warning,
        kern::BugKind::Other,
    };
    std::printf("\nnew crashes by manifestation (paper Table 3):\n");
    std::printf("  %-34s %12s %6s\n", "category", "reproducer", "none");
    for (auto kind : kKinds) {
        auto [with_repro, without] = log.newByKind(kind);
        if (with_repro + without == 0)
            continue;
        std::printf("  %-34s %12zu %6zu\n", kern::bugKindName(kind),
                    with_repro, without);
    }

    std::printf("\nper-crash reports:\n");
    for (const auto &record : log.records()) {
        std::printf("- %s\n    at %s, first seen after %llu execs, "
                    "%s, %s\n",
                    record.description.c_str(), record.location.c_str(),
                    static_cast<unsigned long long>(
                        record.first_seen_exec),
                    record.known ? "known" : "NEW",
                    record.reproduced ? "reproducer found"
                                      : "no reproducer");
        if (record.reproduced) {
            std::printf("%s",
                        prog::formatProg(record.reproducer).c_str());
        }
    }
    return 0;
}
