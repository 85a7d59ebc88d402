// Quickstart: build the simulated kernel, fuzz it briefly with the
// Syzkaller-style baseline, and inspect coverage and crashes.
//
//   $ ./quickstart [exec_budget]
//
// This walks the public API end to end: kernel construction, the
// campaign engine, the crash log with reproduction, and program
// serialization.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/snowplow.h"
#include "kernel/subsystems.h"
#include "prog/serialize.h"

int
main(int argc, char **argv)
{
    using namespace sp;

    uint64_t budget = 20000;
    if (argc > 1)
        budget = std::strtoull(argv[1], nullptr, 10);

    // 1. Build the kernel under test: hand-written VFS/SCSI/NET
    //    subsystems plus a synthetic bulk, with bugs planted deep.
    kern::KernelGenParams params;
    params.seed = 2024;
    params.version = "6.8";
    kern::Kernel kernel = kern::buildBaseKernel(params);
    std::printf("kernel %s: %zu syscalls, %zu blocks, %zu planted bugs\n",
                kernel.version().c_str(), kernel.table().decls.size(),
                kernel.blocks().size(), kernel.bugs().size());

    // 2. Fuzz with the baseline random argument localizer.
    fuzz::CampaignOptions opts;
    opts.fuzz.exec_budget = budget;
    opts.fuzz.seed = 42;
    opts.fuzz.checkpoint_every = budget / 10;
    auto engine = core::makeSyzkallerCampaign(kernel, opts);
    auto report = engine->run();

    std::printf("\nafter %llu executions:\n",
                static_cast<unsigned long long>(report.execs));
    std::printf("  edge coverage : %zu\n", report.final_edges);
    std::printf("  block coverage: %zu\n", report.final_blocks);
    std::printf("  corpus size   : %zu\n", report.corpus_size);
    std::printf("  unique crashes: %zu\n",
                engine->crashes().uniqueCrashes());

    // 3. Reproduce and minimize the crashes we found.
    engine->crashes().reproduceAll();
    for (const auto &record : engine->crashes().records()) {
        std::printf("\ncrash: %s (%s)\n", record.description.c_str(),
                    record.location.c_str());
        std::printf("  known=%s reproduced=%s hits=%llu\n",
                    record.known ? "yes" : "no",
                    record.reproduced ? "yes" : "no",
                    static_cast<unsigned long long>(record.hit_count));
        if (record.reproduced) {
            std::printf("  reproducer:\n%s",
                        prog::formatProg(record.reproducer).c_str());
        }
    }
    return 0;
}
