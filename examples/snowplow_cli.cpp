// snowplow_cli — a single driver over the library's public API.
//
//   snowplow_cli kernel-stats [--seed N] [--version V] [--evolution E]
//       Print the simulated kernel's structure (syscalls, blocks,
//       edges, bug sites).
//
//   snowplow_cli fuzz [--budget N] [--seed N] [--workers N]
//                     [--pmm CKPT] [--async W] [--harvest-dir DIR]
//                     [--covmap-out FILE.jsonl]
//                     [--timeline-out FILE.jsonl]
//                     [--directed-from REPORT.json]
//                     [--exec-backend ref|fast]
//                     [--policy static|thompson]
//       Run a fuzzing campaign (Snowplow when --pmm points at a
//       trained checkpoint, Syzkaller baseline otherwise) and print
//       the coverage timeline and crash summary. --workers N runs the
//       campaign engine with N fuzzing workers (N=1, the default, is
//       bit-for-bit the classic single-threaded loop). With --async W
//       the learned localizer queries an InferenceService worker pool
//       of W threads instead of predicting inline (§3.4 deployment).
//       --covmap-out streams per-checkpoint coverage-cartography
//       snapshots (delta-encoded JSONL; input to `analyze`) and
//       serves the live frontier summary on the status server's
//       /coverage endpoint. --directed-from reads an `analyze`
//       report's cold-frontier target set and runs the campaign
//       directed at it (distance scheduler; Snowplow-D targeting
//       when --pmm is given). --exec-backend picks the executor
//       implementation: `fast` (default; dirty-state restore + dense
//       coverage) or `ref` (the reference interpreter) — the two are
//       bit-identical, so `ref` is for differential/A-B runs.
//       --policy picks the loop's decision policy: `static` (default;
//       the legacy scheduler plus the fixed §3.4 fallback
//       probability) or `thompson` (Beta-Bernoulli bandit over
//       seed-bucket × operator × model-vs-random arms, updated from
//       coverage rewards at every checkpoint). --timeline-out records
//       one delta-encoded metric/coverage/policy sample per virtual-
//       time checkpoint (input to `sp_analysis compare`) and serves
//       the recent window on the status server's /timeline endpoint;
//       with --workers 1 and no --metrics-out sink the artifact is
//       bit-reproducible for a given seed.
//
//   snowplow_cli train [--corpus N] [--mutations N] [--epochs N]
//                      [--out CKPT] [--data SHARD]... [--stream 0|1]
//                      [--state CKPT] [--resume 1]
//       Collect a mutation dataset and train a PMM. With --data the
//       dataset is loaded from example-store shards instead of being
//       collected, and trained through the streaming prefetch loader
//       (--stream 0 forces the in-memory path; both are bit-identical
//       for the same seed). --state writes a resumable checkpoint
//       (parameters + optimizer + trainer cursor) after every epoch;
//       --resume 1 continues from it bit-identically.
//
//   snowplow_cli dataset collect --out DIR [--shards N] [--corpus N]
//                                [--mutations N] [--data-seed N]
//   snowplow_cli dataset merge --out FILE SHARD... [--merge-seed N]
//                              [--cap N]
//   snowplow_cli dataset stats SHARD...
//       The sharded example store: collect a dataset to shards,
//       merge/compact shards (dedupe + popularity cap + split-by-base
//       re-roll), and count a store's contents.
//
//   snowplow_cli directed --target BLOCK [--pmm CKPT] [--budget N]
//       Directed campaign toward one block, baseline vs Snowplow-D.
//
//   snowplow_cli analyze LOG.jsonl [--out REPORT.json] [--targets N]
//       Coverage cartography over a campaign's --covmap-out snapshot
//       log: heat bands (hot/warm/cold/unreached), per-subsystem
//       aggregation, and the ranked cold-frontier target set. Pass the
//       campaign's --seed/--version/--evolution so the rebuilt kernel
//       matches the log (subsystem attribution is skipped, with a
//       warning, when the block counts disagree). --out writes the
//       machine-readable report consumed by `fuzz --directed-from`.
//
//   snowplow_cli corpus [--count N] [--seed N]
//       Generate a corpus and print it in the Syzlang-like syntax
//       (round-trips through the parser as a self-check).
//
//   snowplow_cli fleet coordinator [--port P] [--budget N] [--seed N]
//                                  [--lease-slots N]
//                                  [--lease-timeout-ms MS]
//                                  [--policy static|thompson]
//                                  [--timeline-out FILE.jsonl]
//                                  [--harvest-dir DIR]
//   snowplow_cli fleet node --connect HOST:PORT [--name S]
//                           [--workers N] [--pmm CKPT] [--scratch DIR]
//                           [--max-leases N] [--abandon-first 1]
//       Distributed campaign fabric (DESIGN.md §16): the coordinator
//       owns the virtual-time budget as re-issuable checkpoint-aligned
//       leases and serves the fleet-wide /status, /coverage and
//       /timeline; nodes pull leases plus fleet-corpus seed batches,
//       run each lease as a local campaign, and push back programs,
//       crash reports (globally deduplicated), covmap/posterior deltas
//       and harvested training shards. The merged --timeline-out is
//       directly diffable against a single-process campaign's with
//       `sp_analysis compare`.
//
//   Every command additionally accepts --metrics-out FILE.jsonl: stream
//   JSONL telemetry events (coverage checkpoints, mutation outcomes,
//   inference latencies, training epochs, crash dedup decisions) to
//   FILE and append a final metrics-registry snapshot. See the
//   "Observability" section of DESIGN.md for the event schema.
//
//   Introspection flags (DESIGN.md §10):
//     --trace-out FILE.json     export pipeline spans as Chrome/
//                               Perfetto trace_event JSON
//     --trace-sample 1/64       keep 1 of every 64 pipeline rounds
//                               (also accepts a bare denominator)
//     --status-port P           serve /metrics, /status, /healthz on
//                               127.0.0.1:P (0 = ephemeral; the bound
//                               port is printed)
//     --status-hold 1           after the command finishes, hold the
//                               process (and the status server) until
//                               a line arrives on stdin — scripts
//                               scrape the final state, then release
//     --flightrec-dir DIR       where crash-time flight records land
//     --stall-timeout-ms MS     watchdog: dump a flight record when a
//                               worker sits in one stage this long

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/frontier.h"
#include "analysis/report.h"
#include "core/directed.h"
#include "fleet/coordinator.h"
#include "fleet/node.h"
#include "core/snowplow.h"
#include "core/train.h"
#include "data/harvest.h"
#include "data/loader.h"
#include "data/store.h"
#include "kernel/subsystems.h"
#include "nn/serialize.h"
#include "obs/covmap.h"
#include "obs/statusd.h"
#include "obs/telemetry.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "prog/serialize.h"
#include "util/logging.h"

namespace {

using namespace sp;

/**
 * Minimal argument parser: `--flag value` pairs plus bare positionals
 * (subcommand names, shard paths). A repeated flag keeps every value
 * (getAll); get/getU64 return the last one.
 */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i < argc;) {
            if (std::strncmp(argv[i], "--", 2) == 0 && i + 1 < argc) {
                values_[argv[i] + 2] = argv[i + 1];
                ordered_.emplace_back(argv[i] + 2, argv[i + 1]);
                i += 2;
            } else {
                positionals_.emplace_back(argv[i]);
                i += 1;
            }
        }
    }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    uint64_t
    getU64(const std::string &key, uint64_t fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end()
                   ? fallback
                   : std::strtoull(it->second.c_str(), nullptr, 10);
    }

    bool has(const std::string &key) const
    {
        return values_.count(key) != 0;
    }

    /** Every value of a repeated flag, in command-line order. */
    std::vector<std::string>
    getAll(const std::string &key) const
    {
        std::vector<std::string> out;
        for (const auto &[k, v] : ordered_) {
            if (k == key)
                out.push_back(v);
        }
        return out;
    }

    const std::vector<std::string> &positionals() const
    {
        return positionals_;
    }

    std::string
    positional(size_t i, const std::string &fallback = "") const
    {
        return i < positionals_.size() ? positionals_[i] : fallback;
    }

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::pair<std::string, std::string>> ordered_;
    std::vector<std::string> positionals_;
};

/** "--trace-sample 1/64" or "--trace-sample 64" → keep 1 in 64. */
uint32_t
parseSampleRate(const std::string &text)
{
    const char *s = text.c_str();
    if (const char *slash = std::strchr(s, '/'))
        s = slash + 1;
    const unsigned long denom = std::strtoul(s, nullptr, 10);
    return denom == 0 ? 1 : static_cast<uint32_t>(denom);
}

kern::Kernel
makeKernel(const Args &args)
{
    kern::KernelGenParams params;
    params.seed = args.getU64("seed", 2024);
    params.version = args.get("version", "6.8");
    params.evolution = static_cast<int>(args.getU64("evolution", 0));
    return kern::buildBaseKernel(params);
}

int
cmdKernelStats(const Args &args)
{
    auto kernel = makeKernel(args);
    std::printf("kernel %s\n", kernel.version().c_str());
    std::printf("  syscalls      : %zu\n", kernel.table().decls.size());
    std::printf("  basic blocks  : %zu\n", kernel.blocks().size());
    std::printf("  static edges  : %zu\n", kernel.staticEdges().size());
    std::printf("  resource kinds: %zu\n", kernel.resourceKinds().size());
    std::printf("  state flags   : %u\n", kernel.numFlags());
    std::printf("  bug sites     : %zu\n", kernel.bugs().size());
    for (const auto &bug : kernel.bugs()) {
        std::printf("    [%s%s] depth %u  %s (%s)\n",
                    bug.known ? "known" : "new",
                    bug.flaky ? ",flaky" : "",
                    kernel.block(bug.block).depth,
                    bug.description.c_str(), bug.location.c_str());
    }
    return 0;
}

int
cmdFuzz(const Args &args)
{
    auto kernel = makeKernel(args);
    fuzz::FuzzOptions opts;
    opts.exec_budget = args.getU64("budget", 30000);
    opts.seed = args.getU64("seed", 1);
    opts.checkpoint_every = std::max<uint64_t>(1, opts.exec_budget / 12);

    // --exec-backend ref|fast: executor implementation for every
    // worker (and the localizer probe). Bit-identical; `ref` exists
    // for differential runs and A/B throughput measurements.
    if (args.has("exec-backend")) {
        const std::string name = args.get("exec-backend", "fast");
        if (!exec::parseBackendKind(name, &opts.exec_backend))
            SP_FATAL("--exec-backend %s: expected 'ref' or 'fast'",
                     name.c_str());
    }

    // --policy static|thompson: the loop's decision policy. `static`
    // (default) is the legacy scheduler + fixed §3.4 fallback
    // probability; `thompson` learns seed-bucket × operator ×
    // model-vs-random arms from coverage rewards online.
    if (args.has("policy")) {
        const std::string name = args.get("policy", "static");
        if (name == "static") {
            opts.policy.kind = fuzz::PolicyKind::Static;
        } else if (name == "thompson") {
            opts.policy.kind = fuzz::PolicyKind::Thompson;
        } else {
            SP_FATAL("--policy %s: expected 'static' or 'thompson'",
                     name.c_str());
        }
    }

    fuzz::CampaignOptions campaign_opts;
    campaign_opts.workers = static_cast<size_t>(
        std::max<uint64_t>(1, args.getU64("workers", 1)));
    campaign_opts.fuzz = opts;

    // --covmap-out FILE.jsonl: per-block/edge hit profiling with one
    // delta-encoded snapshot window per checkpoint, plus the live
    // /coverage summary on the status server.
    std::unique_ptr<obs::CovMap> covmap;
    if (args.has("covmap-out")) {
        covmap = std::make_unique<obs::CovMap>(
            obs::CovMapPlan::build(kernel.blocks().size(),
                                   kernel.staticEdges()),
            campaign_opts.workers);
        const std::string path = args.get("covmap-out", "");
        std::string extra = "\"kernel\":{\"seed\":";
        extra += std::to_string(args.getU64("seed", 2024));
        extra += ",\"version\":\"" + kernel.version();
        extra += "\",\"evolution\":";
        extra += std::to_string(args.getU64("evolution", 0));
        extra += "}";
        if (!covmap->openLog(path, extra))
            SP_FATAL("cannot open --covmap-out %s", path.c_str());
        campaign_opts.fuzz.covmap = covmap.get();
        obs::setCoverageProvider(
            [cm = covmap.get()] {
                return obs::summaryJson(cm->plan(), cm->summary());
            });
    }

    // --timeline-out FILE.jsonl: one metric/coverage/policy sample per
    // virtual-time checkpoint (the `sp_analysis compare` input), plus
    // the live /timeline window on the status server.
    std::unique_ptr<obs::TimelineRecorder> timeline;
    if (args.has("timeline-out")) {
        timeline = std::make_unique<obs::TimelineRecorder>(
            obs::TimelineOptions{});
        const std::string path = args.get("timeline-out", "");
        std::string extra = "\"campaign\":{\"seed\":";
        extra += std::to_string(opts.seed);
        extra += ",\"budget\":";
        extra += std::to_string(opts.exec_budget);
        extra += ",\"workers\":";
        extra += std::to_string(campaign_opts.workers);
        extra += ",\"policy\":\"";
        extra += opts.policy.kind == fuzz::PolicyKind::Thompson
                     ? "thompson"
                     : "static";
        extra += "\"},\"kernel\":{\"seed\":";
        extra += std::to_string(args.getU64("seed", 2024));
        extra += ",\"version\":\"" + kernel.version();
        extra += "\",\"evolution\":";
        extra += std::to_string(args.getU64("evolution", 0));
        extra += "}";
        if (!timeline->openLog(path, extra))
            SP_FATAL("cannot open --timeline-out %s", path.c_str());
        campaign_opts.fuzz.timeline = timeline.get();
        obs::setTimelineProvider(
            [tl = timeline.get()] { return tl->recentJson(); });
    }

    // --directed-from REPORT.json: steer the campaign toward the
    // report's cold-frontier targets (closing the cartography loop).
    std::vector<uint32_t> directed_targets;
    if (args.has("directed-from")) {
        const std::string report_path = args.get("directed-from", "");
        std::string err;
        auto loaded = analysis::loadTargets(report_path, &err);
        if (!err.empty())
            SP_FATAL("--directed-from: %s", err.c_str());
        for (const uint32_t block : loaded) {
            if (block < kernel.blocks().size())
                directed_targets.push_back(block);
        }
        if (directed_targets.empty()) {
            SP_FATAL("--directed-from %s has no targets for this "
                     "kernel (did the seeds match?)",
                     report_path.c_str());
        }
        campaign_opts.fuzz.scheduler =
            core::makeDistanceScheduler(kernel, directed_targets);
        std::printf("directed at %zu cold-frontier targets from %s\n",
                    directed_targets.size(), report_path.c_str());
    }

    // --harvest-dir DIR: convert the campaign's successful mutations
    // into training examples, appended to an open shard as we fuzz.
    std::unique_ptr<data::Harvester> harvester;
    if (args.has("harvest-dir")) {
        data::HarvestOptions harvest_opts;
        harvest_opts.dir = args.get("harvest-dir", ".");
        harvest_opts.seed = opts.seed;
        harvester = std::make_unique<data::Harvester>(kernel,
                                                      harvest_opts);
        campaign_opts.on_mutation = harvester->hook();
    }

    core::Pmm model;
    const std::string ckpt = args.get("pmm", "");
    const bool snowplow = !ckpt.empty() &&
                          nn::loadParameters(model, ckpt);
    const size_t async_workers =
        snowplow ? static_cast<size_t>(args.getU64("async", 0)) : 0;
    const std::string workers_note =
        campaign_opts.workers > 1
            ? ", workers " + std::to_string(campaign_opts.workers)
            : "";
    std::printf("%s campaign, budget %llu%s\n",
                snowplow ? (async_workers ? "Snowplow (async)"
                                          : "Snowplow")
                         : "Syzkaller (baseline)",
                static_cast<unsigned long long>(opts.exec_budget),
                workers_note.c_str());

    // Declared before the engine: the async localizers drain their
    // outstanding futures on destruction, so the service must die last.
    std::unique_ptr<core::InferenceService> service;
    std::unique_ptr<fuzz::CampaignEngine> engine;
    core::SnowplowOptions snowplow_opts;
    snowplow_opts.directed_targets = directed_targets;
    if (async_workers > 0) {
        service = std::make_unique<core::InferenceService>(
            model, async_workers);
        engine = core::makeAsyncSnowplowCampaign(
            kernel, *service, campaign_opts, snowplow_opts);
    } else if (snowplow) {
        engine = core::makeSnowplowCampaign(kernel, model,
                                            campaign_opts,
                                            snowplow_opts);
    } else {
        engine = core::makeSyzkallerCampaign(kernel, campaign_opts);
    }
    // The run finalizes the covmap and then the timeline artifact.
    auto report = engine->run();
    if (covmap != nullptr) {
        // The covmap dies with this frame but /coverage may be scraped
        // through --status-hold: freeze the final summary into the
        // provider (mirrors the campaign's status ProviderGuard).
        const auto summary = covmap->summary();
        obs::setCoverageProvider(
            [frozen = obs::summaryJson(covmap->plan(), summary)] {
                return frozen;
            });
        std::printf("covmap: %zu blocks, %zu edges, %zu frontier "
                    "targets, %llu windows -> %s\n",
                    summary.blocks_hit, summary.edges_hit,
                    summary.frontier_size,
                    static_cast<unsigned long long>(summary.windows),
                    args.get("covmap-out", "").c_str());
    }
    if (timeline != nullptr) {
        // Freeze /timeline for --status-hold scrapes (the recorder
        // outlives the campaign but dies with this frame).
        obs::setTimelineProvider(
            [frozen = timeline->recentJson()] { return frozen; });
        std::printf("timeline: %llu samples -> %s\n",
                    static_cast<unsigned long long>(
                        timeline->sampleCount()),
                    args.get("timeline-out", "").c_str());
    }
    if (!directed_targets.empty()) {
        size_t reached = 0;
        for (const uint32_t block : directed_targets)
            reached += engine->corpus().coversBlock(block);
        std::printf("directed: reached %zu/%zu targets\n", reached,
                    directed_targets.size());
    }
    for (const auto &cp : report.timeline) {
        std::printf("  execs %8llu  edges %6zu  blocks %6zu  "
                    "crashes %3zu\n",
                    static_cast<unsigned long long>(cp.execs), cp.edges,
                    cp.blocks, cp.crashes);
    }
    engine->crashes().reproduceAll();
    std::printf("final: %zu edges, %zu crashes (%zu new, %zu with "
                "reproducer)\n",
                report.final_edges, engine->crashes().uniqueCrashes(),
                engine->crashes().newCrashes(),
                engine->crashes().reproducedCrashes());
    if (harvester) {
        harvester->close();
        const auto hstats = harvester->stats();
        std::printf("harvest: %llu examples over %llu bases (%llu "
                    "offered, %llu dropped) -> %s\n",
                    static_cast<unsigned long long>(hstats.examples),
                    static_cast<unsigned long long>(hstats.bases),
                    static_cast<unsigned long long>(hstats.offered),
                    static_cast<unsigned long long>(hstats.dropped),
                    harvester->shardPath().c_str());
    }
    if (service) {
        // The engine holds the localizers with outstanding futures;
        // reset it first so every promise is consumed.
        engine.reset();
        const auto istats = service->stats();
        std::printf("inference: %llu completed, latency p50 %.0f us  "
                    "p95 %.0f us  p99 %.0f us\n",
                    static_cast<unsigned long long>(istats.completed),
                    istats.p50_latency_us, istats.p95_latency_us,
                    istats.p99_latency_us);
    }
    return 0;
}

int
cmdTrain(const Args &args)
{
    auto kernel = makeKernel(args);
    core::TrainOptions train_opts;
    train_opts.epochs = static_cast<int>(args.getU64("epochs", 12));
    train_opts.verbose = true;
    train_opts.checkpoint_path = args.get("state", "");
    train_opts.resume = args.getU64("resume", 0) != 0;
    setLogLevel(LogLevel::Info);

    const std::vector<std::string> shards = args.getAll("data");
    core::Dataset dataset;
    if (shards.empty()) {
        core::DatasetOptions data_opts;
        data_opts.corpus_size = args.getU64("corpus", 300);
        data_opts.mutations_per_base = args.getU64("mutations", 300);
        dataset = core::collectDataset(kernel, data_opts);
    } else {
        bool truncated = false;
        dataset = data::loadStore(kernel, shards, &truncated);
        std::printf("store: %zu shards%s\n", shards.size(),
                    truncated ? " (truncated tail recovered)" : "");
    }
    std::printf("dataset: %zu/%zu/%zu examples\n", dataset.train.size(),
                dataset.valid.size(), dataset.eval.size());

    // `--stream 1` (the default when training from a store) feeds the
    // trainer through the prefetching streaming loader; `--stream 0`
    // forces the historical in-memory path. Both are bit-identical for
    // the same seed — the dataset round-trip CI stage asserts it.
    const bool stream =
        args.getU64("stream", shards.empty() ? 0 : 1) != 0;
    core::Pmm model;
    core::TrainHistory history;
    if (stream) {
        data::LoaderOptions loader_opts;
        loader_opts.prefetch_threads = std::max<uint64_t>(
            1, args.getU64("prefetch", 2));
        data::StreamSource source(dataset, loader_opts);
        history = core::trainPmmFromSource(model, dataset, source,
                                           train_opts);
    } else {
        history = core::trainPmm(model, dataset, train_opts);
    }
    auto metrics = core::evaluatePmm(model, dataset, dataset.eval,
                                     history.best_threshold);
    std::printf("eval: F1 %.3f  P %.3f  R %.3f  J %.3f  "
                "(threshold %.2f)\n",
                metrics.f1, metrics.precision, metrics.recall,
                metrics.jaccard, history.best_threshold);
    const std::string out = args.get("out", "/tmp/pmm.ckpt");
    nn::saveParameters(model, out);
    std::printf("saved %s\n", out.c_str());
    return 0;
}

int
cmdDataset(const Args &args)
{
    const std::string verb = args.positional(0);
    if (verb == "collect") {
        auto kernel = makeKernel(args);
        core::DatasetOptions data_opts;
        data_opts.corpus_size = args.getU64("corpus", 300);
        data_opts.mutations_per_base = args.getU64("mutations", 300);
        data_opts.seed = args.getU64("data-seed", 1);
        auto dataset = core::collectDataset(kernel, data_opts);
        const std::string dir = args.get("out", "/tmp/snowplow_store");
        const auto paths = data::writeStore(
            dataset, dir, args.getU64("shards", 1));
        std::printf("collected %zu/%zu/%zu examples over %zu bases "
                    "into %zu shard(s) under %s\n",
                    dataset.train.size(), dataset.valid.size(),
                    dataset.eval.size(), dataset.bases.size(),
                    paths.size(), dir.c_str());
        return 0;
    }
    if (verb == "merge") {
        std::vector<std::string> inputs(
            args.positionals().begin() + 1, args.positionals().end());
        if (inputs.empty()) {
            std::fprintf(stderr,
                         "usage: snowplow_cli dataset merge --out "
                         "FILE SHARD...\n");
            return 2;
        }
        data::MergeOptions merge_opts;
        merge_opts.seed = args.getU64("merge-seed", 1);
        merge_opts.popularity_cap = args.getU64("cap", 400);
        const std::string out =
            args.get("out", "/tmp/snowplow_store/merged.spds");
        auto index = data::mergeStore(inputs, out, merge_opts);
        std::printf("merged %zu shard(s): %llu bases, %llu/%llu/%llu "
                    "examples, %llu bytes -> %s\n",
                    inputs.size(),
                    static_cast<unsigned long long>(index.bases),
                    static_cast<unsigned long long>(index.train),
                    static_cast<unsigned long long>(index.valid),
                    static_cast<unsigned long long>(index.eval),
                    static_cast<unsigned long long>(index.bytes),
                    out.c_str());
        return 0;
    }
    if (verb == "stats") {
        std::vector<std::string> paths(
            args.positionals().begin() + 1, args.positionals().end());
        if (paths.empty()) {
            std::fprintf(stderr,
                         "usage: snowplow_cli dataset stats SHARD...\n");
            return 2;
        }
        auto stats = data::statStore(paths);
        std::printf("store: %zu shard(s), %zu from index, %zu "
                    "truncated\n",
                    stats.shards, stats.indexed_shards,
                    stats.truncated_shards);
        std::printf("  bases    : %llu\n",
                    static_cast<unsigned long long>(stats.totals.bases));
        std::printf("  examples : %llu train / %llu valid / %llu "
                    "eval\n",
                    static_cast<unsigned long long>(stats.totals.train),
                    static_cast<unsigned long long>(stats.totals.valid),
                    static_cast<unsigned long long>(stats.totals.eval));
        std::printf("  bytes    : %llu\n",
                    static_cast<unsigned long long>(stats.totals.bytes));
        return 0;
    }
    std::fprintf(stderr,
                 "usage: snowplow_cli dataset <collect|merge|stats> "
                 "[--flag value]... [SHARD...]\n");
    return 2;
}

int
cmdDirected(const Args &args)
{
    auto kernel = makeKernel(args);
    core::DirectedOptions opts;
    opts.target_block =
        static_cast<uint32_t>(args.getU64("target", ~0ull));
    if (opts.target_block >= kernel.blocks().size())
        SP_FATAL("--target must name a block (< %zu)",
                 kernel.blocks().size());
    opts.exec_budget = args.getU64("budget", 30000);
    opts.seed = args.getU64("seed", 1);

    auto baseline = core::runSyzDirect(kernel, opts);
    std::printf("SyzDirect : %s (%llu execs)\n",
                baseline.reached ? "reached" : "NOT reached",
                static_cast<unsigned long long>(
                    baseline.reached ? baseline.execs_to_reach
                                     : baseline.execs_total));
    core::Pmm model;
    if (nn::loadParameters(model, args.get("pmm", "/tmp/pmm.ckpt"))) {
        auto learned = core::runSnowplowD(kernel, model, opts);
        std::printf("Snowplow-D: %s (%llu execs)\n",
                    learned.reached ? "reached" : "NOT reached",
                    static_cast<unsigned long long>(
                        learned.reached ? learned.execs_to_reach
                                        : learned.execs_total));
    } else {
        std::printf("Snowplow-D: skipped (no checkpoint; run "
                    "`snowplow_cli train` first)\n");
    }
    return 0;
}

int
cmdAnalyze(const Args &args)
{
    const std::string log = args.get("log", args.positional(0));
    if (log.empty()) {
        std::fprintf(stderr,
                     "usage: snowplow_cli analyze LOG.jsonl "
                     "[--out REPORT.json] [--targets N] "
                     "[--seed N] [--version V] [--evolution E]\n");
        return 2;
    }
    auto profile = analysis::CovProfile::load(log);
    if (!profile.ok())
        SP_FATAL("analyze: %s", profile.error.c_str());

    // Rebuild the campaign's kernel for subsystem attribution; a
    // mismatched rebuild (wrong --seed etc.) is detectable by block
    // count, and attribution is skipped rather than fabricated.
    auto kernel = makeKernel(args);
    const kern::Kernel *attribution = &kernel;
    if (kernel.blocks().size() != profile.plan.num_blocks) {
        std::fprintf(stderr,
                     "warning: rebuilt kernel has %zu blocks but the "
                     "log has %zu — pass the campaign's --seed/"
                     "--version/--evolution; skipping subsystem "
                     "attribution\n",
                     kernel.blocks().size(), profile.plan.num_blocks);
        attribution = nullptr;
    }

    const size_t cap = args.getU64("targets", 32);
    const auto analysis_result =
        analysis::analyze(std::move(profile), attribution, cap);
    std::fputs(analysis::reportText(analysis_result, log).c_str(),
               stdout);

    const std::string out = args.get("out", "");
    if (!out.empty()) {
        std::FILE *f = std::fopen(out.c_str(), "w");
        if (f == nullptr)
            SP_FATAL("cannot write %s", out.c_str());
        const std::string json =
            analysis::reportJson(analysis_result, log) + "\n";
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("report written to %s\n", out.c_str());
    }
    return 0;
}

int
cmdCorpus(const Args &args)
{
    auto kernel = makeKernel(args);
    Rng rng(args.getU64("seed", 1));
    auto corpus = prog::generateCorpus(
        rng, kernel.table(), args.getU64("count", 5));
    for (size_t i = 0; i < corpus.size(); ++i) {
        const std::string text = prog::formatProg(corpus[i]);
        // Self-check: everything we print must parse back.
        auto parsed = prog::parseProg(text, kernel.table());
        SP_ASSERT(parsed.ok() && corpus[i].equals(*parsed.prog),
                  "corpus round-trip failed");
        std::printf("# prog %zu\n%s\n", i, text.c_str());
    }
    return 0;
}

int
cmdFleet(const Args &args)
{
    const std::string role = args.positional(0);

    if (role == "coordinator") {
        auto kernel = makeKernel(args);
        fleet::CoordinatorOptions opts;
        opts.port = static_cast<uint16_t>(args.getU64("port", 0));
        opts.budget = args.getU64("budget", 6000);
        opts.seed = args.getU64("seed", 1);
        opts.kernel_seed = args.getU64("seed", 2024);
        opts.kernel_evolution =
            static_cast<uint32_t>(args.getU64("evolution", 0));
        opts.lease_slots = args.getU64("lease-slots", 0);
        opts.lease_timeout_ms = args.getU64("lease-timeout-ms", 30000);
        opts.thompson = args.get("policy", "static") == "thompson";
        opts.covmap = args.getU64("covmap", 1) != 0;
        opts.timeline_out = args.get("timeline-out", "");
        opts.harvest_dir = args.get("harvest-dir", "");
        fleet::Coordinator coordinator(kernel, opts);
        // The scripted-fleet contract, mirroring the status server's
        // bound-port line: drivers parse this to point their nodes.
        std::printf("fleet coordinator listening on port %u\n",
                    static_cast<unsigned>(coordinator.port()));
        std::printf("fleet campaign: budget %llu, lease %llu slots, "
                    "checkpoint every %llu\n",
                    static_cast<unsigned long long>(opts.budget),
                    static_cast<unsigned long long>(
                        coordinator.leaseSlots()),
                    static_cast<unsigned long long>(
                        coordinator.checkpointEvery()));
        std::fflush(stdout);
        const bool drained = coordinator.waitUntilDrained(
            args.getU64("drain-timeout-ms", 0));
        coordinator.stop();
        const fleet::CoordinatorStats stats = coordinator.stats();
        std::printf("fleet drained: %s (watermark %llu/%llu)\n",
                    drained ? "yes" : "TIMEOUT",
                    static_cast<unsigned long long>(stats.watermark),
                    static_cast<unsigned long long>(opts.budget));
        std::printf("fleet: %llu nodes, %llu leases (%llu reclaimed, "
                    "%llu stale results)\n",
                    static_cast<unsigned long long>(stats.nodes_seen),
                    static_cast<unsigned long long>(
                        stats.leases_granted),
                    static_cast<unsigned long long>(
                        stats.leases_reclaimed),
                    static_cast<unsigned long long>(
                        stats.results_stale));
        std::printf("fleet: %llu programs pushed (%llu deduped), "
                    "%llu crash reports (%llu deduped), %llu shards\n",
                    static_cast<unsigned long long>(
                        stats.programs_pushed),
                    static_cast<unsigned long long>(
                        stats.programs_deduped),
                    static_cast<unsigned long long>(
                        stats.crashes_pushed),
                    static_cast<unsigned long long>(
                        stats.crashes_deduped),
                    static_cast<unsigned long long>(
                        stats.shards_received));
        std::printf("final: %zu edges, %zu blocks, %zu corpus, "
                    "%zu crashes\n",
                    stats.edges, stats.blocks, stats.corpus_size,
                    stats.unique_crashes);
        if (!opts.timeline_out.empty()) {
            std::printf("timeline: %zu samples -> %s\n",
                        coordinator.timelineSamples(),
                        opts.timeline_out.c_str());
        }
        return drained ? 0 : 1;
    }

    if (role == "node") {
        fleet::NodeOptions opts;
        const std::string connect =
            args.get("connect", "127.0.0.1:0");
        const size_t colon = connect.rfind(':');
        if (colon == std::string::npos)
            SP_FATAL("--connect %s: expected HOST:PORT",
                     connect.c_str());
        opts.host = connect.substr(0, colon);
        opts.port = static_cast<uint16_t>(
            std::strtoul(connect.c_str() + colon + 1, nullptr, 10));
        opts.name = args.get("name", "node");
        opts.workers = static_cast<size_t>(
            std::max<uint64_t>(1, args.getU64("workers", 1)));
        opts.pmm_path = args.get("pmm", "");
        opts.scratch_dir = args.get("scratch", "/tmp");
        opts.max_leases = args.getU64("max-leases", 0);
        opts.abandon_first = args.getU64("abandon-first", 0) != 0;
        opts.retry_ms = args.getU64("retry-ms", 50);
        opts.connect_timeout_ms =
            args.getU64("connect-timeout-ms", 5000);
        const fleet::NodeStats stats = fleet::runNode(opts);
        std::printf("node %s: %llu leases, %llu execs, %llu programs, "
                    "%llu crash reports%s\n",
                    opts.name.c_str(),
                    static_cast<unsigned long long>(stats.leases),
                    static_cast<unsigned long long>(stats.execs),
                    static_cast<unsigned long long>(
                        stats.programs_sent),
                    static_cast<unsigned long long>(stats.crashes_sent),
                    stats.done ? " (campaign drained)" : "");
        if (!stats.error.empty()) {
            std::fprintf(stderr, "node %s: %s\n", opts.name.c_str(),
                         stats.error.c_str());
            return 1;
        }
        return 0;
    }

    std::fprintf(stderr,
                 "usage: snowplow_cli fleet coordinator [--port P] "
                 "[--budget N] [--seed N]\n"
                 "           [--lease-slots N] [--lease-timeout-ms MS] "
                 "[--policy static|thompson]\n"
                 "           [--timeline-out FILE.jsonl] "
                 "[--harvest-dir DIR] [--drain-timeout-ms MS]\n"
                 "       snowplow_cli fleet node --connect HOST:PORT "
                 "[--name S] [--workers N]\n"
                 "           [--pmm CKPT] [--scratch DIR] "
                 "[--max-leases N] [--abandon-first 1]\n");
    return 2;
}

}  // namespace

int
dispatch(const std::string &command, const Args &args)
{
    if (command == "kernel-stats")
        return cmdKernelStats(args);
    if (command == "fuzz")
        return cmdFuzz(args);
    if (command == "train")
        return cmdTrain(args);
    if (command == "dataset")
        return cmdDataset(args);
    if (command == "directed")
        return cmdDirected(args);
    if (command == "analyze")
        return cmdAnalyze(args);
    if (command == "corpus")
        return cmdCorpus(args);
    if (command == "fleet")
        return cmdFleet(args);
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    return 2;
}

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: snowplow_cli "
                     "<kernel-stats|fuzz|train|dataset|directed|"
                     "analyze|corpus|fleet> "
                     "[--flag value]... [--metrics-out FILE.jsonl]\n"
                     "       [--trace-out FILE.json] [--trace-sample "
                     "1/64] [--status-port P] [--status-hold 1]\n"
                     "       [--flightrec-dir DIR] "
                     "[--stall-timeout-ms MS]\n");
        return 2;
    }
    const Args args(argc, argv);
    const std::string metrics_out = args.get("metrics-out", "");
    if (!metrics_out.empty())
        sp::obs::installSink({.path = metrics_out});

    const std::string trace_out = args.get("trace-out", "");
    const uint64_t stall_ms = args.getU64("stall-timeout-ms", 0);
    const bool tracing = !trace_out.empty() ||
                         args.has("flightrec-dir") || stall_ms > 0;
    if (tracing) {
        sp::obs::TraceOptions trace_opts;
        trace_opts.path = trace_out;
        trace_opts.sample =
            parseSampleRate(args.get("trace-sample", "1"));
        trace_opts.flightrec_dir = args.get("flightrec-dir", ".");
        trace_opts.stall_timeout_us = stall_ms * 1000;
        sp::obs::installTracer(trace_opts);
    }

    std::unique_ptr<sp::obs::StatusServer> status_server;
    if (args.has("status-port")) {
        status_server = std::make_unique<sp::obs::StatusServer>(
            static_cast<uint16_t>(args.getU64("status-port", 0)));
        std::printf("status server listening on port %u\n",
                    static_cast<unsigned>(status_server->port()));
        std::fflush(stdout);
    }

    const int rc = dispatch(argv[1], args);
    std::fflush(stdout);

    // Scripted introspection: keep the process (and its status server)
    // alive after the command so a driver can scrape the final
    // /metrics and /status, then release us with one stdin line.
    if (status_server != nullptr && args.getU64("status-hold", 0) != 0) {
        std::printf("status-hold: send a line to stdin to exit\n");
        std::fflush(stdout);
        int c;
        while ((c = std::fgetc(stdin)) != EOF && c != '\n') {
        }
    }
    status_server.reset();
    if (tracing) {
        sp::obs::shutdownTracer();
        if (!trace_out.empty())
            std::printf("trace written to %s\n", trace_out.c_str());
    }

    if (!metrics_out.empty()) {
        // Appends the final registry snapshot and closes the file.
        sp::obs::shutdownSink();
        std::printf("telemetry written to %s\n", metrics_out.c_str());
    }
    return rc;
}
