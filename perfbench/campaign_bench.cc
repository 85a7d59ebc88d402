// The campaign benchmark of record: executions and edges per
// wall-second, read against a fixed host reference routine, on the
// canonical campaign workloads, with a separate traced run that breaks
// the wall time down by layer.
//
//   campaign_bench run --workload W --seed N --seconds S --trace 0|1
//                      --model DIR [--stream K --streams L]
//   campaign_bench train --out DIR
//
// `run` prints a readable report on stderr and one JSON line as the
// last line of stdout. With --trace 0 (no decorator, no timing inside
// the loop) the process is stream K of the L that run.py starts side
// by side, and the line holds the stream's raw campaign figures, which
// run.py merges into the end-to-end metrics. With --trace 1 a single
// process prints {correct, attempted, failed, metrics} with the
// per-layer metrics.
// `train` writes the pinned model (pmm.ckpt + pmm.threshold) with the
// shared evaluation recipe; it is deterministic and is run once.
//
// Every campaign goes through public entry points only:
// fuzz::CampaignEngine with a localizer factory, core::InferenceService,
// and fleet::Coordinator with fleet::runNode threads. Each fuzz worker
// is a closed loop (its next mutant is issued only after the previous
// one finished) and no workload starts more than four busy threads.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/common.h"
#include "core/infer.h"
#include "core/snowplow.h"
#include "core/train.h"
#include "fleet/coordinator.h"
#include "fleet/node.h"
#include "graph/encode.h"
#include "graph/query_graph.h"
#include "kernel/builder.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "prog/serialize.h"
#include "prog/validate.h"
#include "util/rng.h"

namespace {

using namespace sp;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Nearest-rank percentile (q in [0, 1]). */
double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------- workloads

enum class Mode { Syzkaller, SnowplowSync, SnowplowAsync, Fleet };

struct Workload
{
    const char *name;
    Mode mode;
    size_t workers;        ///< fuzz workers (fleet: nodes)
    size_t infer_threads;  ///< InferenceService threads (async only)
    /** Campaign seeds of an untraced run; every run covers each at
     *  least once. Campaign cost varies by seed, so a workload whose
     *  campaigns are short gets more of them. */
    size_t seeds;
};

// Why each workload exists is recorded in README.md, and in
// BENCHMARK.json for the ones the benchmark runs.
constexpr Workload kWorkloads[] = {
    {"syz-w1", Mode::Syzkaller, 1, 0, 64},
    {"snowplow-sync-w1", Mode::SnowplowSync, 1, 0, 32},
    {"snowplow-async-w2", Mode::SnowplowAsync, 2, 2, 16},
    {"fleet-3", Mode::Fleet, 3, 0, 16},
};

/** Fig. 6 "24 h" campaign: the per-campaign virtual budget. */
constexpr uint64_t kCampaignBudget = spbench::kDayInExecs;
/** Fleet: one fleet campaign's budget, carved into short leases. */
constexpr uint64_t kFleetBudget = 60000;
constexpr uint64_t kFleetLeaseSlots = 2500;
/** Campaign seeds of a traced run, which runs each seed twice. */
constexpr size_t kTracedSeeds = 8;
/** Set-up repetitions before the first campaign (setup_s is the
 *  median of these and one more after every campaign). */
constexpr int kSetupReps = 5;
/** Bases sampled by the graph/nn replay. */
constexpr size_t kReplayBases = 64;
/** Passes of the mutate and exec replays over the final corpus. */
constexpr size_t kReplayPasses = 8;

bool
learnedMode(Mode mode)
{
    return mode == Mode::SnowplowSync || mode == Mode::SnowplowAsync;
}

kern::Kernel
workloadKernel(Mode mode)
{
    if (mode == Mode::Fleet) {
        // Nodes rebuild the kernel from its seed with default
        // generation parameters, so the fleet fuzzes the base kernel.
        kern::KernelGenParams params;
        params.seed = fleet::CoordinatorOptions{}.kernel_seed;
        return kern::buildBaseKernel(params);
    }
    return spbench::makeEvalKernel("6.8");
}

// ---------------------------------------------------------- pinned model

struct PinnedModel
{
    std::string ckpt;
    float threshold = 0.5f;
};

std::optional<PinnedModel>
locateModel(const std::string &dir)
{
    PinnedModel model;
    model.ckpt = dir + "/pmm.ckpt";
    std::FILE *f = std::fopen((dir + "/pmm.threshold").c_str(), "r");
    if (f == nullptr)
        return std::nullopt;
    const bool ok = std::fscanf(f, "%f", &model.threshold) == 1;
    std::fclose(f);
    if (!ok)
        return std::nullopt;
    return model;
}

int
trainModel(const std::string &dir)
{
    core::Pmm pmm;
    kern::Kernel kernel = spbench::makeEvalKernel("6.8");
    auto dataset =
        core::collectDataset(kernel, spbench::evalDatasetOptions());
    core::TrainOptions train_opts;
    // The shared evaluation recipe (bench/common.cc sharedPmm).
    train_opts.epochs = 8;
    train_opts.max_train_examples = 2600;
    auto history = core::trainPmm(pmm, dataset, train_opts);
    nn::saveParameters(pmm, dir + "/pmm.ckpt");
    std::FILE *f = std::fopen((dir + "/pmm.threshold").c_str(), "w");
    if (f == nullptr)
        return 1;
    std::fprintf(f, "%f\n", history.best_threshold);
    std::fclose(f);
    std::fprintf(stderr, "trained: valid F1 %.3f, threshold %.2f\n",
                 history.best_valid.f1, history.best_threshold);
    return 0;
}

// ------------------------------------------------------- layer probes

/** Per-worker localize tallies, written only by that worker. */
struct LocalizeProbe
{
    std::vector<double> us;
    uint64_t channels[mut::kLocalizerChannels] = {};
};

/**
 * Forwarding Localizer decorator: times localizeChosen and counts the
 * channel it reports. Every virtual forwards, so a wrapped campaign is
 * bit-identical to an unwrapped one (checked by the traced run).
 */
class TimedLocalizer : public mut::Localizer
{
  public:
    TimedLocalizer(std::unique_ptr<mut::Localizer> inner,
                   LocalizeProbe &probe)
        : inner_(std::move(inner)), probe_(probe)
    {
    }

    std::vector<mut::ArgLocation>
    localize(const prog::Prog &prog, Rng &rng, size_t max_sites) override
    {
        return inner_->localize(prog, rng, max_sites);
    }

    std::vector<mut::ArgLocation>
    localizeWithResult(const prog::Prog &prog,
                       const exec::ExecResult &result, Rng &rng,
                       size_t max_sites) override
    {
        return inner_->localizeWithResult(prog, result, rng, max_sites);
    }

    bool learned() const override { return inner_->learned(); }

    mut::Localization
    localizeChosen(const prog::Prog &prog, const exec::ExecResult &result,
                   Rng &rng, size_t max_sites, bool use_model) override
    {
        const auto start = Clock::now();
        mut::Localization loc = inner_->localizeChosen(
            prog, result, rng, max_sites, use_model);
        probe_.us.push_back(1e6 * secondsSince(start));
        ++probe_.channels[static_cast<size_t>(loc.channel)];
        return loc;
    }

  private:
    std::unique_ptr<mut::Localizer> inner_;
    LocalizeProbe &probe_;
};

/** Forwarding Scheduler decorator: times pick() (any worker). */
class TimedScheduler : public fuzz::Scheduler
{
  public:
    explicit TimedScheduler(std::shared_ptr<fuzz::Scheduler> inner)
        : inner_(std::move(inner))
    {
    }

    const fuzz::CorpusEntry &
    pick(const fuzz::Corpus &corpus, Rng &rng) override
    {
        const auto start = Clock::now();
        const fuzz::CorpusEntry &entry = inner_->pick(corpus, rng);
        ns_.fetch_add(static_cast<uint64_t>(
                          std::chrono::duration_cast<
                              std::chrono::nanoseconds>(Clock::now() -
                                                        start)
                              .count()),
                      std::memory_order_relaxed);
        calls_.fetch_add(1, std::memory_order_relaxed);
        return entry;
    }

    double seconds() const { return 1e-9 * static_cast<double>(ns_.load()); }
    uint64_t calls() const { return calls_.load(); }

  private:
    std::shared_ptr<fuzz::Scheduler> inner_;
    std::atomic<uint64_t> ns_{0};
    std::atomic<uint64_t> calls_{0};
};

/** What a traced campaign's probes and public getters reported. */
struct LayerSample
{
    std::vector<double> localize_us;
    uint64_t channels[mut::kLocalizerChannels] = {};
    double localize_s = 0.0;
    double pick_s = 0.0;
    uint64_t picks = 0;
    double worker_wall_s = 0.0;
    double worker_busy = 0.0;
    uint64_t arg_produced = 0, arg_admitted = 0;
    uint64_t struct_produced = 0, struct_admitted = 0;
    uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
    uint64_t infer_campaigns = 0;  ///< campaigns with a service
    uint64_t infer_completed = 0;
    double infer_p50_us = 0.0, infer_p99_us = 0.0, infer_batch = 0.0;
    uint64_t async_submitted = 0, async_pending = 0;
    // Fleet.
    double lease_ms = 0.0;
    double bytes_per_exec = 0.0;
    double dup_push_ratio = 0.0;
    uint64_t reclaimed = 0, stale = 0, frame_errors = 0;
};

/** Programs plus their cached results, for the replay phases. */
struct CorpusSnapshot
{
    std::vector<prog::Prog> programs;
    std::vector<exec::ExecResult> results;
};

// ------------------------------------------------------------- campaigns

struct Env
{
    const Workload *workload = nullptr;
    const kern::Kernel *kernel = nullptr;
    const core::Pmm *model = nullptr;  ///< unloaded when not needed
    float threshold = 0.5f;
};

core::SnowplowOptions
snowplowOptions(const Env &env, const fuzz::CampaignOptions &copts)
{
    core::SnowplowOptions sopts;
    sopts.threshold = env.threshold;
    sopts.exec_backend = copts.fuzz.exec_backend;
    return sopts;
}

/** The workload's localizer, built as makeSnowplowCampaign and its
 *  siblings build theirs (one prediction cache per campaign). */
std::unique_ptr<mut::Localizer>
makeLocalizer(const Env &env, const core::SnowplowOptions &sopts,
              const std::shared_ptr<core::PredictionCache> &cache,
              core::InferenceService *service)
{
    switch (env.workload->mode) {
      case Mode::SnowplowSync:
        return std::make_unique<core::PmmLocalizer>(*env.kernel, *env.model,
                                                    sopts, cache);
      case Mode::SnowplowAsync:
        return std::make_unique<core::AsyncPmmLocalizer>(
            *env.kernel, *service, sopts, cache);
      default:
        return std::make_unique<mut::RandomLocalizer>();
    }
}

fleet::CoordinatorOptions
fleetOptions(uint64_t seed)
{
    fleet::CoordinatorOptions copts;
    copts.budget = kFleetBudget;
    copts.checkpoint_every = kFleetLeaseSlots;
    copts.lease_slots = kFleetLeaseSlots;
    copts.seed = seed;
    copts.serve_status = false;
    return copts;
}

CorpusSnapshot
snapshotOf(const fuzz::Corpus &corpus)
{
    CorpusSnapshot snap;
    for (size_t i = 0; i < corpus.size(); ++i) {
        snap.programs.push_back(corpus.entry(i).program);
        snap.results.push_back(corpus.entry(i).result);
    }
    return snap;
}

struct CampaignOutcome
{
    uint64_t seed = 0;
    double wall_s = 0.0;
    uint64_t execs = 0;
    size_t final_edges = 0;
    size_t final_crashes = 0;
    std::vector<fuzz::Checkpoint> timeline;
    std::array<fuzz::LaneCounts, fuzz::kMutationLanes> lanes{};
    uint64_t attempted = 1;  ///< operations: 1 campaign, or leases
    uint64_t failed = 0;
    std::string error;  ///< first failed check, empty = correct
};

fuzz::CampaignOptions
campaignOptions(const Env &env, uint64_t seed)
{
    fuzz::CampaignOptions copts;
    copts.workers = env.workload->workers;
    copts.fuzz = spbench::evalFuzzOptions(kCampaignBudget, seed);
    return copts;
}

/** Budget, grid, and corpus checks shared by every campaign. */
std::string
checkCampaign(const fuzz::FuzzReport &report, const fuzz::Corpus &corpus,
              const kern::Kernel &kernel, uint64_t budget,
              uint64_t grid)
{
    if (report.execs != budget)
        return "budget not spent exactly";
    if (report.timeline.size() != budget / grid)
        return "checkpoint count off the grid";
    for (size_t i = 0; i < report.timeline.size(); ++i) {
        const fuzz::Checkpoint &cp = report.timeline[i];
        if (cp.execs != (i + 1) * grid)
            return "checkpoint off the grid";
        if (i > 0 && (cp.edges < report.timeline[i - 1].edges ||
                      cp.crashes < report.timeline[i - 1].crashes))
            return "timeline not monotone";
    }
    if (report.timeline.back().edges != report.final_edges ||
        report.timeline.back().crashes != report.final_crashes)
        return "final checkpoint disagrees with the report";
    if (corpus.size() != report.corpus_size || corpus.size() == 0)
        return "corpus size mismatch";
    for (size_t i = 0; i < corpus.size(); ++i) {
        const prog::Prog &program = corpus.entry(i).program;
        if (auto bad = prog::validateProg(program))
            return "corpus program invalid: " + *bad;
        const std::string text = prog::formatProg(program);
        prog::ParseResult parsed = prog::parseProg(text, kernel.table());
        if (!parsed.ok() || !parsed.prog->equals(program) ||
            prog::formatProg(*parsed.prog) != text)
            return "corpus program fails the text round trip";
    }
    return {};
}

/**
 * One engine campaign. `layers` null = untraced: the factory returns
 * the plain localizer and nothing inside the loop is timed.
 */
CampaignOutcome
runEngineCampaign(const Env &env, uint64_t seed, LayerSample *layers,
                  CorpusSnapshot *snapshot)
{
    const Workload &wl = *env.workload;
    const kern::Kernel &kernel = *env.kernel;
    fuzz::CampaignOptions copts = campaignOptions(env, seed);

    std::shared_ptr<TimedScheduler> scheduler;
    if (layers != nullptr) {
        scheduler =
            std::make_shared<TimedScheduler>(fuzz::makeScheduler(copts.fuzz));
        copts.fuzz.scheduler = scheduler;
    }

    const core::SnowplowOptions sopts = snowplowOptions(env, copts);
    auto cache = std::make_shared<core::PredictionCache>(sopts.cache_capacity);
    std::unique_ptr<core::InferenceService> service;
    if (wl.mode == Mode::SnowplowAsync)
        service = std::make_unique<core::InferenceService>(
            *env.model, wl.infer_threads);

    std::vector<LocalizeProbe> probes(wl.workers);
    std::vector<core::AsyncPmmLocalizer *> async_localizers;
    auto factory =
        [&](size_t worker) -> std::unique_ptr<mut::Localizer> {
        std::unique_ptr<mut::Localizer> inner =
            makeLocalizer(env, sopts, cache, service.get());
        if (wl.mode == Mode::SnowplowAsync)
            async_localizers.push_back(
                static_cast<core::AsyncPmmLocalizer *>(inner.get()));
        if (layers == nullptr)
            return inner;
        return std::make_unique<TimedLocalizer>(std::move(inner),
                                                probes[worker]);
    };

    CampaignOutcome out;
    out.seed = seed;
    auto engine = std::make_unique<fuzz::CampaignEngine>(kernel, copts,
                                                         factory);
    const auto start = Clock::now();
    const fuzz::FuzzReport report = engine->run();
    out.wall_s = secondsSince(start);

    out.execs = report.execs;
    out.final_edges = report.final_edges;
    out.final_crashes = report.final_crashes;
    out.timeline = report.timeline;
    out.lanes = report.lanes;
    out.error = checkCampaign(report, engine->corpus(), kernel,
                              copts.fuzz.exec_budget,
                              copts.fuzz.checkpoint_every);

    uint64_t submitted = 0;
    for (const core::AsyncPmmLocalizer *async : async_localizers)
        submitted += async->submitted();

    if (layers != nullptr) {
        auto &reg = obs::Registry::global();
        for (size_t w = 0; w < wl.workers; ++w) {
            const LocalizeProbe &probe = probes[w];
            layers->localize_us.insert(layers->localize_us.end(),
                                       probe.us.begin(), probe.us.end());
            for (size_t c = 0; c < mut::kLocalizerChannels; ++c)
                layers->channels[c] += probe.channels[c];
            for (double us : probe.us)
                layers->localize_s += 1e-6 * us;
            layers->worker_busy +=
                reg.gauge(obs::workerMetric("fuzz.worker_busy_ratio", w))
                    .value() /
                static_cast<double>(wl.workers);
        }
        layers->pick_s += scheduler->seconds();
        layers->picks += scheduler->calls();
        layers->worker_wall_s +=
            out.wall_s * static_cast<double>(wl.workers);
        const auto &arg = report.lane(fuzz::MutationLane::Argument);
        const auto &st = report.lane(fuzz::MutationLane::Structural);
        layers->arg_produced += arg.produced;
        layers->arg_admitted += arg.admitted;
        layers->struct_produced += st.produced;
        layers->struct_admitted += st.admitted;
        layers->cache_hits += cache->hits();
        layers->cache_misses += cache->misses();
        layers->cache_evictions += cache->evictions();
        for (const core::AsyncPmmLocalizer *async : async_localizers)
            layers->async_pending += async->answeredWhilePending();
        layers->async_submitted += submitted;
    }
    if (snapshot != nullptr)
        *snapshot = snapshotOf(engine->corpus());

    // Destroying the engine drains every localizer's in-flight queries,
    // so afterwards each async submission must have resolved.
    engine.reset();
    if (service != nullptr) {
        const core::InferenceStats stats = service->stats();
        if (stats.completed != submitted && out.error.empty())
            out.error = "async submissions left unresolved";
        if (layers != nullptr) {
            // Latency and batch figures: means of per-campaign values.
            ++layers->infer_campaigns;
            layers->infer_completed += stats.completed;
            layers->infer_p50_us += stats.p50_latency_us;
            layers->infer_p99_us += stats.p99_latency_us;
            layers->infer_batch += stats.mean_batch_size;
        }
    }
    if (!out.error.empty())
        out.failed = 1;
    return out;
}

/** One fleet campaign: an in-process coordinator plus runNode threads. */
CampaignOutcome
runFleetCampaign(const Env &env, uint64_t seed, LayerSample *layers,
                 CorpusSnapshot *snapshot)
{
    const Workload &wl = *env.workload;
    const fleet::CoordinatorOptions copts = fleetOptions(seed);
    fleet::Coordinator coordinator(*env.kernel, copts);

    std::vector<fleet::NodeStats> nodes(wl.workers);
    std::vector<double> node_wall(wl.workers, 0.0);
    const auto start = Clock::now();
    {
        std::vector<std::thread> threads;
        for (size_t n = 0; n < wl.workers; ++n) {
            threads.emplace_back([&, n] {
                fleet::NodeOptions node;
                node.port = coordinator.port();
                node.name = "node" + std::to_string(n);
                const auto t0 = Clock::now();
                nodes[n] = fleet::runNode(node);
                node_wall[n] = secondsSince(t0);
            });
        }
        for (auto &thread : threads)
            thread.join();
    }
    CampaignOutcome out;
    out.seed = seed;
    out.wall_s = secondsSince(start);
    const bool drained = coordinator.drained();
    coordinator.stop();
    const fleet::CoordinatorStats stats = coordinator.stats();

    out.execs = stats.watermark;
    out.final_edges = stats.edges;
    out.final_crashes = stats.unique_crashes;
    out.attempted = std::max<uint64_t>(1, stats.leases_granted);
    if (!drained || stats.watermark != copts.budget)
        out.error = "fleet watermark short of the budget";
    for (const fleet::NodeStats &node : nodes) {
        if (!node.done || !node.error.empty())
            out.error = "node ended with error: " + node.error;
    }
    if (stats.frame_errors != 0)
        out.error = "frame errors on loopback";
    if (stats.crashes_pushed != stats.unique_crashes + stats.crashes_deduped)
        out.error = "crash dedup tallies disagree";
    out.failed = out.error.empty()
                     ? stats.leases_reclaimed + stats.results_stale
                     : out.attempted;

    if (layers != nullptr) {
        uint64_t leases = 0;
        double wall = 0.0;
        for (size_t n = 0; n < wl.workers; ++n) {
            leases += nodes[n].leases;
            wall += node_wall[n];
        }
        layers->lease_ms += 1e3 * ratio(wall, static_cast<double>(leases));
        layers->bytes_per_exec +=
            ratio(static_cast<double>(stats.bytes_rx + stats.bytes_tx),
                  static_cast<double>(stats.watermark));
        layers->dup_push_ratio +=
            ratio(static_cast<double>(stats.programs_deduped),
                  static_cast<double>(stats.programs_pushed));
        layers->reclaimed += stats.leases_reclaimed;
        layers->stale += stats.results_stale;
        layers->frame_errors += stats.frame_errors;
    }
    if (snapshot != nullptr) {
        // The coordinator exposes no corpus, so the replays run over a
        // local 10k-execution campaign on the fleet's kernel.
        fuzz::CampaignOptions local;
        local.fuzz = spbench::evalFuzzOptions(kFleetLeaseSlots * 4, seed);
        auto engine = core::makeSyzkallerCampaign(*env.kernel, local);
        engine->run();
        *snapshot = snapshotOf(engine->corpus());
    }
    return out;
}

CampaignOutcome
runCampaign(const Env &env, uint64_t seed, LayerSample *layers,
            CorpusSnapshot *snapshot)
{
    return env.workload->mode == Mode::Fleet
               ? runFleetCampaign(env, seed, layers, snapshot)
               : runEngineCampaign(env, seed, layers, snapshot);
}

// --------------------------------------------------------------- set-up

struct SetupTimes
{
    double total_s = 0.0;
    double kernel_s = 0.0;
    double model_s = 0.0;
};

/**
 * One set-up: build the kernel, load the pinned model (Snowplow
 * workloads), and construct what a campaign starts from — the engine
 * (and inference service), or the coordinator.
 */
SetupTimes
setupOnce(const Workload &wl, const PinnedModel &pinned)
{
    SetupTimes t;
    const auto start = Clock::now();
    const kern::Kernel kernel = workloadKernel(wl.mode);
    t.kernel_s = secondsSince(start);
    core::Pmm model;
    if (learnedMode(wl.mode)) {
        const auto m0 = Clock::now();
        if (!nn::loadParameters(model, pinned.ckpt)) {
            std::fprintf(stderr, "cannot load %s\n", pinned.ckpt.c_str());
            std::exit(2);
        }
        t.model_s = secondsSince(m0);
    }
    if (wl.mode == Mode::Fleet) {
        fleet::Coordinator coordinator(kernel, fleetOptions(1));
        t.total_s = secondsSince(start);
        coordinator.stop();
        return t;
    }
    const Env env{&wl, &kernel, &model, pinned.threshold};
    const fuzz::CampaignOptions copts = campaignOptions(env, 1);
    const core::SnowplowOptions sopts = snowplowOptions(env, copts);
    std::unique_ptr<core::InferenceService> service;
    if (wl.mode == Mode::SnowplowAsync)
        service =
            std::make_unique<core::InferenceService>(model, wl.infer_threads);
    auto cache = std::make_shared<core::PredictionCache>(sopts.cache_capacity);
    fuzz::CampaignEngine engine(kernel, copts, [&](size_t) {
        return makeLocalizer(env, sopts, cache, service.get());
    });
    t.total_s = secondsSince(start);
    return t;
}

// -------------------------------------------------------- host reference

/** Rounds of the reference routine: a few ms on the 4-CPU host. */
constexpr uint64_t kReferenceRounds = 5000;
/** Keeps the reference routine's result observable. */
std::atomic<uint64_t> g_reference_sink{0};

/**
 * A fixed routine made only of this directory's code: small vectors
 * are built, copied, sorted and hashed into a set, the kind of work a
 * campaign does. It does the same work on every call, so its duration
 * measures the shared host's speed at that moment, and no change to
 * the repository moves it. Campaign wall times are read against it.
 */
double
referenceSeconds()
{
    const auto start = Clock::now();
    uint64_t x = 0x9e3779b97f4a7c15ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::vector<std::vector<uint64_t>> pool;
    std::unordered_set<uint64_t> seen;
    for (uint64_t round = 0; round < kReferenceRounds; ++round) {
        std::vector<uint64_t> item(4 + next() % 28);
        for (uint64_t &v : item)
            v = next();
        if (!pool.empty()) {
            std::vector<uint64_t> copy = pool[next() % pool.size()];
            copy[next() % copy.size()] = next();
            std::sort(copy.begin(), copy.end());
            for (uint64_t v : copy)
                seen.insert(v & 0xfffff);
        }
        if (pool.size() < 1024)
            pool.push_back(std::move(item));
        else
            pool[next() % pool.size()] = std::move(item);
    }
    g_reference_sink.fetch_add(seen.size(), std::memory_order_relaxed);
    return secondsSince(start);
}

// -------------------------------------------------------------- replays

struct ReplayFigures
{
    double copy_us = 0.0;
    double instantiate_us = 0.0;
    double exec_run_us_p50 = 0.0;
    double exec_calls_per_prog = 0.0;
    double graph_build_us = 0.0;
    double graph_encode_us = 0.0;
    double graph_arg_nodes = 0.0;
    double nn_forward_us = 0.0;
};

ReplayFigures
replayCorpus(const kern::Kernel &kernel, const core::Pmm &model,
             const CorpusSnapshot &snap, uint64_t seed)
{
    ReplayFigures fig;
    const size_t n = snap.programs.size();
    if (n == 0)
        return fig;
    Rng rng(seed);

    // mutate: the per-mutant base copy and one argument instantiation.
    const mut::Mutator mutator(kernel.table(), fuzz::FuzzOptions{}.mutator);
    std::vector<double> copy_us, inst_us;
    for (size_t pass = 0; pass < kReplayPasses; ++pass) {
        for (const prog::Prog &base : snap.programs) {
            const auto sites = mut::allArgLocations(base);
            auto t0 = Clock::now();
            prog::Prog mutant;
            mutant.calls = base.calls;
            copy_us.push_back(1e6 * secondsSince(t0));
            if (sites.empty())
                continue;
            const mut::ArgLocation &site = sites[rng.below(sites.size())];
            t0 = Clock::now();
            mutator.instantiateArgMutation(mutant, site, rng);
            inst_us.push_back(1e6 * secondsSince(t0));
        }
    }
    fig.copy_us = median(copy_us);
    fig.instantiate_us = median(inst_us);

    // exec: the corpus through a noisy executor on the fuzz backend.
    exec::Executor executor(
        kernel, exec::ExecOptions{false, seed, exec::BackendKind::Fast});
    std::vector<double> run_us;
    for (size_t pass = 0; pass < kReplayPasses; ++pass) {
        for (const prog::Prog &program : snap.programs) {
            const auto t0 = Clock::now();
            const exec::ExecResult result = executor.run(program);
            run_us.push_back(1e6 * secondsSince(t0));
        }
    }
    fig.exec_run_us_p50 = median(run_us);
    fig.exec_calls_per_prog =
        ratio(static_cast<double>(executor.callsExecuted()),
              static_cast<double>(executor.programsExecuted()));

    // graph/nn: localization queries from sampled bases.
    std::vector<double> build_us, encode_us, forward_us, arg_nodes;
    for (size_t q = 0; q < kReplayBases; ++q) {
        const size_t i = rng.below(n);
        const prog::Prog &program = snap.programs[i];
        const exec::ExecResult &result = snap.results[i];
        auto t0 = Clock::now();
        const auto frontier =
            graph::alternativeFrontier(kernel, result.coverage);
        const graph::QueryGraph query =
            graph::buildQueryGraph(kernel, program, result, frontier);
        build_us.push_back(1e6 * secondsSince(t0));
        if (query.argument_nodes.empty())
            continue;
        arg_nodes.push_back(static_cast<double>(query.argument_nodes.size()));
        t0 = Clock::now();
        const graph::EncodedGraph encoded = graph::encodeGraph(kernel, query);
        encode_us.push_back(1e6 * secondsSince(t0));
        t0 = Clock::now();
        const std::vector<float> probs = model.predict(encoded);
        forward_us.push_back(1e6 * secondsSince(t0));
        if (probs.size() != query.argument_nodes.size()) {
            std::fprintf(stderr, "model output size mismatch\n");
            std::exit(2);
        }
    }
    fig.graph_build_us = median(build_us);
    fig.graph_encode_us = median(encode_us);
    fig.nn_forward_us = median(forward_us);
    double total_nodes = 0.0;
    for (double v : arg_nodes)
        total_nodes += v;
    fig.graph_arg_nodes = ratio(total_nodes, static_cast<double>(arg_nodes.size()));
    return fig;
}

// --------------------------------------------------------------- report

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::fprintf(stderr, "%-32s %16s  %s\n", "metric", "value", "unit");
    for (const Metric &m : metrics)
        std::fprintf(stderr, "%-32s %16.6g  %s\n", m.name.c_str(), m.value,
                     m.unit);
    std::fprintf(stderr, "%-32s %16.6g  ratio (%" PRIu64 "/%" PRIu64 ")\n",
                 "error_ratio",
                 ratio(static_cast<double>(failed),
                       static_cast<double>(attempted)),
                 failed, attempted);
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                value + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** One seed's campaigns in a run: every wall time, the first outcome. */
struct SeedRecord
{
    std::vector<double> walls;
    CampaignOutcome first;
};

double
sumMedianWalls(const std::map<uint64_t, SeedRecord> &seeds)
{
    double total = 0.0;
    for (const auto &[seed, rec] : seeds)
        total += median(rec.walls);
    return total;
}

/** Same seed, same deterministic campaign: identical outcome. */
bool
sameOutcome(const CampaignOutcome &a, const CampaignOutcome &b)
{
    if (a.final_edges != b.final_edges || a.final_crashes != b.final_crashes ||
        a.execs != b.execs || a.timeline.size() != b.timeline.size())
        return false;
    for (size_t i = 0; i < a.timeline.size(); ++i) {
        const fuzz::Checkpoint &x = a.timeline[i];
        const fuzz::Checkpoint &y = b.timeline[i];
        if (x.execs != y.execs || x.edges != y.edges ||
            x.blocks != y.blocks || x.crashes != y.crashes)
            return false;
    }
    for (size_t l = 0; l < fuzz::kMutationLanes; ++l) {
        if (a.lanes[l].produced != b.lanes[l].produced ||
            a.lanes[l].admitted != b.lanes[l].admitted)
            return false;
    }
    return true;
}

/** FNV-1a over everything sameOutcome compares. */
uint64_t
outcomeDigest(const CampaignOutcome &o)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
    mix(o.execs);
    mix(o.final_edges);
    mix(o.final_crashes);
    for (const fuzz::Checkpoint &cp : o.timeline) {
        mix(cp.execs);
        mix(cp.edges);
        mix(cp.blocks);
        mix(cp.crashes);
    }
    for (const fuzz::LaneCounts &lane : o.lanes) {
        mix(lane.produced);
        mix(lane.admitted);
    }
    return h;
}

/**
 * One stream's raw figures as a JSON line; run.py merges the streams
 * of a run into the end-to-end metrics. A campaign is
 * [seed, wall_s, execs, final_edges, final_crashes, digest].
 */
void
printStreamReport(bool deterministic, uint64_t attempted, uint64_t failed,
                  const std::vector<double> &setup_s,
                  const std::vector<double> &reference_s,
                  const std::vector<CampaignOutcome> &campaigns)
{
    char buf[160];
    std::string json = "{\"deterministic\": ";
    json += deterministic ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    std::snprintf(buf, sizeof(buf), ", \"peak_rss_mb\": %.17g", peakRssMb());
    json += buf;
    auto appendList = [&](const char *name, const std::vector<double> &v) {
        json += std::string(", \"") + name + "\": [";
        for (size_t i = 0; i < v.size(); ++i) {
            std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "", v[i]);
            json += buf;
        }
        json += "]";
    };
    appendList("setup_s", setup_s);
    appendList("reference_s", reference_s);
    json += ", \"campaigns\": [";
    for (size_t i = 0; i < campaigns.size(); ++i) {
        const CampaignOutcome &o = campaigns[i];
        std::snprintf(buf, sizeof(buf),
                      "%s[%" PRIu64 ", %.17g, %" PRIu64 ", %zu, %zu, "
                      "\"%016" PRIx64 "\"]",
                      i ? ", " : "", o.seed, o.wall_s, o.execs,
                      o.final_edges, o.final_crashes, outcomeDigest(o));
        json += buf;
    }
    json += "]}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

struct RunArgs
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string model_dir;
    size_t stream = 0;   ///< this process's index among the streams
    size_t streams = 1;  ///< campaign streams of the run (trace: 1)
};

int
runBenchmark(const RunArgs &args)
{
    const Workload *wl = nullptr;
    for (const Workload &w : kWorkloads)
        if (args.workload == w.name)
            wl = &w;
    if (wl == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    const std::optional<PinnedModel> pinned = locateModel(args.model_dir);
    if (!pinned) {
        std::fprintf(stderr, "no pinned model in '%s'\n",
                     args.model_dir.c_str());
        return 2;
    }
    const bool deterministic = wl->workers == 1 && wl->mode != Mode::Fleet;
    std::fprintf(stderr, "%s: %u CPUs, %s build, seed %" PRIu64 "\n",
                 wl->name, std::thread::hardware_concurrency(),
                 PERFBENCH_BUILD_TYPE, args.seed);

    // Set-up and the host reference repeat before the campaigns and once
    // after each, so their medians sample the same machine conditions
    // the campaigns see.
    std::vector<double> setup_s, kernel_s, model_s, reference_s;
    auto measureSetup = [&] {
        const SetupTimes t = setupOnce(*wl, *pinned);
        setup_s.push_back(t.total_s);
        kernel_s.push_back(t.kernel_s);
        model_s.push_back(t.model_s);
        reference_s.push_back(referenceSeconds());
    };
    for (int rep = 0; rep < kSetupReps; ++rep)
        measureSetup();
    const kern::Kernel kernel = workloadKernel(wl->mode);
    core::Pmm model;
    const bool need_model = learnedMode(wl->mode) || args.trace;
    if (need_model && !nn::loadParameters(model, pinned->ckpt)) {
        std::fprintf(stderr, "cannot load %s\n", pinned->ckpt.c_str());
        return 2;
    }
    const Env env{wl, &kernel, &model, pinned->threshold};

    std::vector<uint64_t> seeds;
    for (size_t i = 0; i < (args.trace ? kTracedSeeds : wl->seeds); ++i)
        seeds.push_back(splitSeed(args.seed, i + 1));
    if (args.streams > seeds.size()) {
        std::fprintf(stderr, "more streams than seeds\n");
        return 2;
    }

    uint64_t attempted = 0;
    uint64_t failed = 0;
    auto account = [&](const CampaignOutcome &o) {
        attempted += o.attempted;
        failed += o.failed;
        std::fprintf(stderr,
                     "campaign seed %" PRIu64 ": %.3f s, %.0f execs/s, "
                     "%zu edges, %zu crashes\n",
                     o.seed, o.wall_s,
                     ratio(static_cast<double>(o.execs), o.wall_s),
                     o.final_edges, o.final_crashes);
        if (!o.error.empty())
            std::fprintf(stderr, "seed %" PRIu64 ": %s\n", o.seed,
                         o.error.c_str());
    };

    std::map<uint64_t, SeedRecord> plain;   // untraced campaigns
    std::map<uint64_t, SeedRecord> traced;  // traced campaigns
    auto record = [&](std::map<uint64_t, SeedRecord> &into,
                      CampaignOutcome o) {
        account(o);
        auto [it, fresh] = into.try_emplace(o.seed);
        SeedRecord &rec = it->second;
        rec.walls.push_back(o.wall_s);
        if (fresh) {
            rec.first = std::move(o);
        } else if (deterministic && !sameOutcome(rec.first, o)) {
            // workers = 1 with the static policy repeats exactly.
            std::fprintf(stderr, "seed %" PRIu64 ": rerun diverged\n",
                         o.seed);
            ++failed;
        }
    };

    LayerSample layers;
    CorpusSnapshot snapshot;
    uint64_t traced_campaigns = 0;
    uint64_t traced_execs = 0;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    // A stream starts at its offset in the seed list and runs at least
    // its share, so the streams of a run together cover every seed.
    const size_t first = args.stream * seeds.size() / args.streams;
    const size_t share = (seeds.size() + args.streams - 1) / args.streams;
    std::vector<CampaignOutcome> untraced;
    for (size_t j = 0;; ++j) {
        const size_t i = first + j;
        const uint64_t seed = seeds[i % seeds.size()];
        // Campaigns are independent: each starts from a trimmed heap,
        // so its own peak, not the allocator's history, sets
        // peak_rss_mb and no campaign inherits another's grown heap.
        if (!args.trace) {
            untraced.push_back(runCampaign(env, seed, nullptr, nullptr));
            account(untraced.back());
            malloc_trim(0);
        } else {
            // Untraced and traced campaigns of one seed back to back,
            // alternating which goes first, give the tracing overhead
            // and prove the decorators transparent.
            const bool traced_first = (i + i / seeds.size()) % 2 == 1;
            // The replays run over the corpus of the first pass's last
            // traced campaign.
            CorpusSnapshot *snap =
                i + 1 == seeds.size() ? &snapshot : nullptr;
            CampaignOutcome a, b;
            for (const bool traced_leg : {traced_first, !traced_first}) {
                if (traced_leg)
                    b = runCampaign(env, seed, &layers, snap);
                else
                    a = runCampaign(env, seed, nullptr, nullptr);
                malloc_trim(0);
            }
            if (deterministic && !sameOutcome(a, b)) {
                std::fprintf(stderr,
                             "seed %" PRIu64 ": traced run diverged\n",
                             seed);
                ++failed;
            }
            ++traced_campaigns;
            traced_execs += b.execs;
            record(plain, std::move(a));
            record(traced, std::move(b));
        }
        measureSetup();
        if (j + 1 >= share && Clock::now() >= deadline)
            break;
    }

    if (!args.trace) {
        // run.py checks the reruns across streams and computes the
        // end-to-end metrics.
        printStreamReport(deterministic, attempted, failed, setup_s,
                          reference_s, untraced);
        return 0;
    }

    const ReplayFigures replay =
        replayCorpus(kernel, model, snapshot, args.seed);
    const double campaigns = static_cast<double>(traced_campaigns);
    double plain_execs = 0.0;
    for (const auto &[seed, rec] : plain)
        plain_execs += static_cast<double>(rec.first.execs);
    const double localize_calls =
        static_cast<double>(layers.localize_us.size());
    const uint64_t model_answers =
        layers.channels[static_cast<size_t>(mut::LocalizerChannel::Model)];
    const uint64_t forced = layers.channels[static_cast<size_t>(
        mut::LocalizerChannel::ForcedRandom)];
    const double rest_s =
        layers.worker_wall_s - layers.localize_s - layers.pick_s;
    const double infer_campaigns =
        std::max<double>(1.0, static_cast<double>(layers.infer_campaigns));
    const std::vector<Metric> metrics = {
        {"mutate.localize.calls", localize_calls / campaigns, "count"},
        {"mutate.localize.us_p50", percentile(layers.localize_us, 0.5), "us"},
        {"mutate.localize.us_p99", percentile(layers.localize_us, 0.99), "us"},
        {"mutate.localize.busy_share",
         ratio(layers.localize_s, layers.worker_wall_s), "ratio"},
        {"mutate.localize.model", static_cast<double>(model_answers) / campaigns,
         "count"},
        {"mutate.localize.random",
         static_cast<double>(layers.channels[static_cast<size_t>(
             mut::LocalizerChannel::Random)]) /
             campaigns,
         "count"},
        {"mutate.localize.forced_random", static_cast<double>(forced) / campaigns,
         "count"},
        {"model_answer_ratio",
         ratio(static_cast<double>(model_answers),
               static_cast<double>(model_answers + forced)),
         "ratio"},
        {"mutate.copy_us", replay.copy_us, "us"},
        {"mutate.instantiate_us", replay.instantiate_us, "us"},
        {"fuzz.sched.pick_us",
         1e6 * ratio(layers.pick_s, static_cast<double>(layers.picks)), "us"},
        {"fuzz.sched.busy_share", ratio(layers.pick_s, layers.worker_wall_s),
         "ratio"},
        {"fuzz.rest_us_per_exec",
         1e6 * ratio(rest_s, static_cast<double>(traced_execs)), "us"},
        {"fuzz.rest_share", ratio(rest_s, layers.worker_wall_s), "ratio"},
        {"fuzz.lane.arg.admit_ratio",
         ratio(static_cast<double>(layers.arg_admitted),
               static_cast<double>(layers.arg_produced)),
         "ratio"},
        {"fuzz.lane.struct.admit_ratio",
         ratio(static_cast<double>(layers.struct_admitted),
               static_cast<double>(layers.struct_produced)),
         "ratio"},
        {"fuzz.worker_busy_ratio", layers.worker_busy / campaigns, "ratio"},
        {"exec.run_us_p50", replay.exec_run_us_p50, "us"},
        {"exec.calls_per_prog", replay.exec_calls_per_prog, "count"},
        {"core.cache.hit_ratio",
         ratio(static_cast<double>(layers.cache_hits),
               static_cast<double>(layers.cache_hits + layers.cache_misses)),
         "ratio"},
        {"core.cache.evictions",
         static_cast<double>(layers.cache_evictions) / campaigns, "count"},
        {"core.infer.completed",
         static_cast<double>(layers.infer_completed) / campaigns, "count"},
        {"core.infer.p50_ms",
         1e-3 * layers.infer_p50_us / infer_campaigns, "ms"},
        {"core.infer.p99_ms",
         1e-3 * layers.infer_p99_us / infer_campaigns, "ms"},
        {"core.infer.batch_mean",
         layers.infer_batch / infer_campaigns, "count"},
        {"core.async.submitted",
         static_cast<double>(layers.async_submitted) / campaigns, "count"},
        {"core.async.pending_answers",
         static_cast<double>(layers.async_pending) / campaigns, "count"},
        {"graph.build_us", replay.graph_build_us, "us"},
        {"graph.encode_us", replay.graph_encode_us, "us"},
        {"graph.arg_nodes", replay.graph_arg_nodes, "count"},
        {"nn.forward_us", replay.nn_forward_us, "us"},
        {"fleet.lease_ms", layers.lease_ms / campaigns, "ms"},
        {"fleet.bytes_per_exec", layers.bytes_per_exec / campaigns,
         "B"},
        {"fleet.dup_push_ratio", layers.dup_push_ratio / campaigns,
         "ratio"},
        {"fleet.reclaimed", static_cast<double>(layers.reclaimed), "count"},
        {"fleet.stale", static_cast<double>(layers.stale), "count"},
        {"fleet.frame_errors", static_cast<double>(layers.frame_errors),
         "count"},
        {"setup.kernel_s", median(kernel_s), "s"},
        {"setup.model_s", median(model_s), "s"},
        {"trace.overhead_ratio",
         ratio(sumMedianWalls(traced), sumMedianWalls(plain)), "ratio"},
        {"host.reference_ms", 1e3 * median(reference_s), "ms"},
        {"host.execs_per_s", ratio(plain_execs, sumMedianWalls(plain)),
         "1/s"},
    };
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: campaign_bench run --workload W --seed N "
                 "--seconds S --trace 0|1 --model DIR\n"
                 "                          [--stream K --streams L]\n"
                 "       campaign_bench train --out DIR\n");
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    std::map<std::string, std::string> flags;
    for (int i = 2; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            return usage();
        flags[argv[i] + 2] = argv[i + 1];
    }
    auto flag = [&](const char *name) -> const std::string * {
        auto it = flags.find(name);
        return it == flags.end() ? nullptr : &it->second;
    };
    if (cmd == "train") {
        const std::string *out = flag("out");
        return out == nullptr ? usage() : trainModel(*out);
    }
    if (cmd != "run")
        return usage();
    RunArgs args;
    const std::string *workload = flag("workload");
    const std::string *seed = flag("seed");
    const std::string *seconds = flag("seconds");
    const std::string *trace = flag("trace");
    const std::string *model = flag("model");
    if (!workload || !seed || !seconds || !trace || !model)
        return usage();
    char *end = nullptr;
    args.workload = *workload;
    args.seed = std::strtoull(seed->c_str(), &end, 10);
    if (*end != '\0')
        return usage();
    args.seconds = std::strtod(seconds->c_str(), &end);
    if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 120.0)
        return usage();
    if (*trace != "0" && *trace != "1")
        return usage();
    args.trace = *trace == "1";
    args.model_dir = *model;
    const std::string *stream = flag("stream");
    const std::string *streams = flag("streams");
    if ((stream == nullptr) != (streams == nullptr))
        return usage();
    if (stream != nullptr) {
        args.stream = std::strtoull(stream->c_str(), &end, 10);
        if (*end != '\0')
            return usage();
        args.streams = std::strtoull(streams->c_str(), &end, 10);
        if (*end != '\0' || args.stream >= args.streams ||
            (args.trace && args.streams != 1))
            return usage();
    }
    return runBenchmark(args);
}
