#include "fleet/node.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/snowplow.h"
#include "data/harvest.h"
#include "data/store.h"
#include "kernel/subsystems.h"
#include "nn/serialize.h"
#include "obs/covmap.h"
#include "obs/netio.h"
#include "prog/serialize.h"
#include "prog/validate.h"
#include "util/logging.h"

namespace sp::fleet {

namespace {

/** Read a whole file; empty on failure (the shard just isn't pushed). */
std::vector<uint8_t>
slurpFile(const std::string &path)
{
    std::vector<uint8_t> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return bytes;
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    if (size > 0) {
        bytes.resize(static_cast<size_t>(size));
        std::fseek(f, 0, SEEK_SET);
        if (std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size())
            bytes.clear();
    }
    std::fclose(f);
    return bytes;
}

/** One lease's local campaign -> the LeaseResult push. */
LeaseResultMsg
runLease(const kern::Kernel &kernel, const HelloAckMsg &cfg,
         const LeaseGrantMsg &grant, const NodeOptions &opts,
         const core::Pmm *model)
{
    fuzz::CampaignOptions copts;
    copts.workers = std::max<size_t>(1, opts.workers);
    copts.fuzz.exec_budget = grant.count;
    copts.fuzz.seed = grant.node_seed;
    // One grid boundary per lease: the fleet timeline is sampled on the
    // coordinator's watermark grid, not inside leases.
    copts.fuzz.checkpoint_every = grant.count;
    copts.fuzz.policy.kind = cfg.thompson != 0
                                 ? fuzz::PolicyKind::Thompson
                                 : fuzz::PolicyKind::Static;
    // A seeded lease still generates a few of its own programs (the
    // exploration floor); an unseeded one bootstraps a full corpus.
    copts.fuzz.seed_corpus_size =
        grant.batch.empty() ? cfg.seed_corpus_size : cfg.lease_gen_seeds;
    // The batch crosses a trust boundary: a text that parses but breaks
    // a structural invariant (e.g. a stale Len field) is dropped like
    // an unparseable one.
    for (const std::string &text : grant.batch) {
        auto parsed = prog::parseProg(text, kernel.table());
        if (parsed.ok() && !prog::validateProg(*parsed.prog))
            copts.fuzz.injected_seeds.push_back(std::move(*parsed.prog));
    }

    std::unique_ptr<obs::CovMap> covmap;
    if (cfg.covmap != 0) {
        covmap = std::make_unique<obs::CovMap>(
            obs::CovMapPlan::build(kernel.blocks().size(),
                                   kernel.staticEdges()),
            copts.workers);
        copts.fuzz.covmap = covmap.get();
    }

    std::unique_ptr<data::Harvester> harvester;
    if (cfg.harvest != 0) {
        data::HarvestOptions hopts;
        hopts.dir = opts.scratch_dir + "/fleet-" + opts.name;
        char shard[48];
        std::snprintf(shard, sizeof(shard), "lease-%llu.spds",
                      static_cast<unsigned long long>(grant.lease_id));
        hopts.shard_name = shard;
        hopts.seed = grant.node_seed;
        ::mkdir(opts.scratch_dir.c_str(), 0755);
        harvester = std::make_unique<data::Harvester>(kernel, hopts);
        copts.on_mutation = harvester->hook();
    }

    std::unique_ptr<fuzz::CampaignEngine> engine =
        model != nullptr
            ? core::makeSnowplowCampaign(kernel, *model, copts)
            : core::makeSyzkallerCampaign(kernel, copts);
    const fuzz::FuzzReport report = engine->run();

    LeaseResultMsg result;
    result.lease_id = grant.lease_id;
    result.execs = report.execs;

    // Injected seeds run first, in slots 1..k: entries admitted there
    // are the coordinator's own batch, which it already holds.
    const uint64_t injected = copts.fuzz.injected_seeds.size();
    for (size_t i = 0; i < engine->corpus().size(); ++i) {
        const fuzz::CorpusEntry &entry = engine->corpus().entry(i);
        if (entry.admitted_at_exec <= injected)
            continue;
        WireProgram program;
        program.text = prog::formatProg(entry.program);
        const auto &coverage = entry.result.coverage;
        program.blocks.assign(coverage.blocks().begin(),
                              coverage.blocks().end());
        program.edges.assign(coverage.edges().begin(),
                             coverage.edges().end());
        std::sort(program.blocks.begin(), program.blocks.end());
        std::sort(program.edges.begin(), program.edges.end());
        result.programs.push_back(std::move(program));
    }

    for (const fuzz::CrashRecord &record : engine->crashes().records()) {
        WireCrash crash;
        crash.bug_index = record.bug_index;
        // Map the local exec counter onto the lease's global slot range
        // (clamped: seed-stage executions can overrun a short lease).
        crash.slot = grant.begin +
                     std::min(record.first_seen_exec, grant.count);
        crash.trigger = prog::formatProg(record.trigger);
        result.crashes.push_back(std::move(crash));
    }

    if (covmap != nullptr) {
        result.have_cov = true;
        const std::vector<uint64_t> blocks = covmap->mergedBlockHits();
        for (uint32_t i = 0; i < blocks.size(); ++i) {
            if (blocks[i] != 0)
                result.block_deltas.emplace_back(i, blocks[i]);
        }
        const std::vector<uint64_t> edges = covmap->mergedEdgeHits();
        for (uint32_t i = 0; i < edges.size(); ++i) {
            if (edges[i] != 0)
                result.edge_deltas.emplace_back(i, edges[i]);
        }
        result.stray_edges = covmap->summary().stray_edges;
    }

    if (const fuzz::DecisionPolicy *policy = engine->policy()) {
        result.have_policy = true;
        result.policy_name = policy->name();
        result.pmm_share = policy->pmmShare();
        for (size_t arm = 0; arm < policy->armCount(); ++arm) {
            const uint64_t pulls =
                policy->mergedPulls(static_cast<int>(arm));
            if (pulls == 0)
                continue;
            WireArm entry;
            entry.arm = static_cast<uint32_t>(arm);
            entry.pulls = pulls;
            entry.wins = policy->mergedWins(static_cast<int>(arm));
            result.arms.push_back(entry);
        }
    }

    if (harvester != nullptr) {
        harvester->close();
        if (harvester->stats().examples > 0) {
            result.shard = slurpFile(harvester->shardPath());
            result.have_shard = !result.shard.empty();
        }
    }

    return result;
}

}  // namespace

NodeStats
runNode(const NodeOptions &opts)
{
    NodeStats stats;

    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(opts.connect_timeout_ms);
    int fd = -1;
    for (;;) {
        fd = obs::connectTcp(opts.host, opts.port);
        if (fd >= 0)
            break;
        if (std::chrono::steady_clock::now() >= deadline) {
            stats.error = "connect timeout";
            return stats;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts.retry_ms));
    }

    const auto fail = [&](const char *what) {
        stats.error = what;
        ::close(fd);
        return stats;
    };

    HelloMsg hello;
    hello.node_name = opts.name;
    if (!sendFrame(fd, MsgType::Hello, hello.encode()))
        return fail("hello send failed");

    Frame frame;
    if (recvFrame(fd, &frame) != RecvStatus::Ok)
        return fail("handshake recv failed");
    if (frame.type == MsgType::Error) {
        ErrorMsg msg;
        msg.decode(frame.payload);
        stats.error = msg.message.empty() ? "rejected" : msg.message;
        ::close(fd);
        return stats;
    }
    HelloAckMsg cfg;
    if (frame.type != MsgType::HelloAck || !cfg.decode(frame.payload))
        return fail("bad handshake ack");

    // Rebuild the coordinator's kernel and prove it is the same one:
    // a node fuzzing a different kernel would push meaningless block
    // ids and crash indices into the merge.
    kern::KernelGenParams params;
    params.seed = cfg.kernel_seed;
    params.version = cfg.kernel_version;
    params.evolution = static_cast<int>(cfg.kernel_evolution);
    const kern::Kernel kernel = kern::buildBaseKernel(params);
    if (data::kernelFingerprint(kernel) != cfg.kernel_fingerprint) {
        sendFrame(fd, MsgType::Bye, {});
        return fail("kernel fingerprint mismatch");
    }

    core::Pmm model;
    const bool have_model =
        !opts.pmm_path.empty() && nn::loadParameters(model, opts.pmm_path);

    for (;;) {
        if (!sendFrame(fd, MsgType::LeaseRequest, {}))
            return fail("lease request send failed");
        if (recvFrame(fd, &frame) != RecvStatus::Ok)
            return fail("lease grant recv failed");
        if (frame.type == MsgType::Error) {
            ErrorMsg msg;
            msg.decode(frame.payload);
            stats.error = msg.message;
            ::close(fd);
            return stats;
        }
        LeaseGrantMsg grant;
        if (frame.type != MsgType::LeaseGrant ||
            !grant.decode(frame.payload))
            return fail("bad lease grant");

        if (grant.done != 0) {
            stats.done = true;
            sendFrame(fd, MsgType::Bye, {});
            break;
        }
        if (grant.count == 0) {
            // Budget fully leased out but not yet proven complete; an
            // outstanding lease may still bounce back to the pool.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts.retry_ms));
            continue;
        }

        if (opts.abandon_first) {
            // Fault injection: vanish mid-lease. No Bye, no result —
            // the coordinator's disconnect reclaim must re-issue it.
            ::close(fd);
            return stats;
        }

        const LeaseResultMsg result = runLease(
            kernel, cfg, grant, opts, have_model ? &model : nullptr);
        stats.execs += result.execs;
        stats.programs_sent += result.programs.size();
        stats.crashes_sent += result.crashes.size();

        if (!sendFrame(fd, MsgType::LeaseResult, result.encode()))
            return fail("lease result send failed");
        if (recvFrame(fd, &frame) != RecvStatus::Ok ||
            frame.type != MsgType::ResultAck)
            return fail("result ack recv failed");
        ResultAckMsg ack;
        if (!ack.decode(frame.payload))
            return fail("bad result ack");
        ++stats.leases;
        if (ack.accepted != 0)
            ++stats.accepted;
        else
            ++stats.stale;

        if (opts.max_leases != 0 && stats.leases >= opts.max_leases) {
            sendFrame(fd, MsgType::Bye, {});
            break;
        }
    }

    ::close(fd);
    return stats;
}

}  // namespace sp::fleet
