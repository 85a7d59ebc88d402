// Reproduces paper Table 4: the sample of diagnosed bug reports.
//
// Runs the Snowplow campaign, reproduces crashes, and prints the
// report rows for the diagnosed bugs — detector, failing syscall,
// failure location and status — leading with the hand-modeled bugs
// that mirror the paper's: the ATA PIO out-of-bounds write reachable
// only through a precisely crafted ioctl$scsi (paper bug #1), the
// mmap/GUP stack-growth assertion (paper bug #4), the ext4-like
// write-path warning (paper bug #5), and a concurrency GPF in sendmsg
// (reproduction-resistant, like the paper's io_uring GPF).
//
// Expected shape: the deep SCSI bug is found by Snowplow with a
// 2-call reproducer; several other deep bugs come with reproducers and
// serious detectors.

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/common.h"
#include "prog/serialize.h"
#include "util/stats.h"

int
main()
{
    using namespace sp;
    const uint64_t budget = 7 * 24 * spbench::kHourInExecs / 5;
    std::printf("=== Table 4: diagnosed bug reports (Snowplow campaign, "
                "%llu execs) ===\n\n",
                static_cast<unsigned long long>(budget));

    kern::Kernel kernel = spbench::makeEvalKernel("6.8");
    fuzz::CampaignOptions opts;
    opts.fuzz = spbench::evalFuzzOptions(budget, 101);
    auto engine =
        core::makeSnowplowCampaign(kernel, spbench::sharedPmm(), opts,
                                   spbench::evalSnowplowOptions());
    engine->run();
    engine->crashes().reproduceAll();

    // Order: hand-modeled paper bugs first, then other new crashes.
    auto records = engine->crashes().records();
    std::stable_sort(records.begin(), records.end(),
                     [](const auto &a, const auto &b) {
                         auto rank = [](const fuzz::CrashRecord &r) {
                             if (r.location.find("drivers/ata") !=
                                 std::string::npos)
                                 return 0;
                             if (r.location.rfind("subsys/gen", 0) != 0)
                                 return 1;  // other hand-written bugs
                             return 2;
                         };
                         return rank(a) < rank(b);
                     });

    std::vector<std::vector<std::string>> rows;
    int id = 0;
    for (const auto &record : records) {
        if (record.known)
            continue;
        ++id;
        std::string syscall = "-";
        if (!record.trigger.calls.empty()) {
            syscall =
                record.reproduced && !record.reproducer.calls.empty()
                    ? record.reproducer.calls.back().decl->name
                    : record.trigger.calls.back().decl->name;
        }
        rows.push_back(
            {std::to_string(id), record.description,
             kern::bugKindName(record.kind), syscall + "()",
             record.location,
             record.reproduced ? "Reproduced" : "No reproducer"});
        if (rows.size() >= 10)
            break;
    }
    std::printf("%s\n", formatTable({"ID", "Bug description", "Detector",
                                     "Failure syscall",
                                     "Failure location", "Status"},
                                    rows)
                            .c_str());

    // Print the reproducer of the ATA bug (the paper's flagship).
    for (const auto &record : records) {
        if (record.location.find("drivers/ata") == std::string::npos ||
            !record.reproduced) {
            continue;
        }
        std::printf("flagship reproducer (paper bug #1, "
                    "ata_pio_sector OOB):\n%s\n",
                    prog::formatProg(record.reproducer).c_str());
        std::printf("paper: requires ioctl() with "
                    "SCSI_IOCTL_SEND_COMMAND + ATA_16 + ATA_NOP + "
                    "PIO + oversized data length — found by Snowplow, "
                    "missed by Syzkaller's random mutations.\n");
        break;
    }
    return 0;
}
