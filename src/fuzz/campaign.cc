#include "fuzz/campaign.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "obs/covmap.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "prog/gen.h"
#include "util/logging.h"

namespace sp::fuzz {

namespace {

/** Handles for the fuzz-loop metrics in the campaign's registry. */
struct FuzzMetrics
{
    obs::Counter &execs;
    obs::Counter &arg_mutants;
    obs::Counter &arg_admitted;
    obs::Counter &structural_mutants;
    obs::Counter &structural_admitted;
    obs::Counter &seed_programs;
    obs::Histogram &checkpoint_edge_delta;

    explicit FuzzMetrics(obs::Registry &reg)
        : execs(reg.counter("fuzz.execs")),
          arg_mutants(reg.counter("fuzz.mutants.arg")),
          arg_admitted(reg.counter("fuzz.mutants.arg_admitted")),
          structural_mutants(reg.counter("fuzz.mutants.structural")),
          structural_admitted(
              reg.counter("fuzz.mutants.structural_admitted")),
          seed_programs(reg.counter("fuzz.seed_programs")),
          checkpoint_edge_delta(
              reg.histogram("fuzz.checkpoint.edge_delta"))
    {
    }
};

/** Per-lane tallies shared by every worker of one campaign. */
struct LaneTally
{
    std::atomic<uint64_t> produced{0};
    std::atomic<uint64_t> admitted{0};
};

/** State shared by every worker of one campaign run. */
struct CampaignShared
{
    explicit CampaignShared(obs::Registry &reg) : registry(reg), metrics(reg)
    {
    }

    /** The campaign's registry (CampaignEngine::metrics()). */
    obs::Registry &registry;
    FuzzMetrics metrics;
    const FuzzOptions *opts = nullptr;
    Corpus *corpus = nullptr;
    CrashLog *crashes = nullptr;
    BudgetLedger *ledger = nullptr;
    /** The campaign's decision policy (never null once workers run):
     *  every pick/operator/arbitration choice and every post-triage
     *  reward goes through it. Shard merges happen in the serialized
     *  checkpoint owner, before the checkpoints_done publish. */
    DecisionPolicy *policy = nullptr;
    LaneTally lanes[kMutationLanes];

    /** Checkpoints appended strictly in grid order (see emit logic). */
    std::vector<Checkpoint> board;
    /** Checkpoints emitted so far (board.size(), published). */
    std::atomic<uint64_t> checkpoints_done{0};
    /** Wakes boundary owners waiting for the previous checkpoint. */
    std::mutex checkpoint_mu;
    std::condition_variable checkpoint_cv;
    /** Edge count at the previous checkpoint (telemetry deltas); only
     *  the in-order checkpoint owner touches it. */
    size_t last_checkpoint_edges = 0;

    /** runUntil's stop predicate bound to the engine; empty = never. */
    std::function<bool()> stop;

    /**
     * Mutation observer (CampaignOptions::on_mutation); null or empty
     * = none. A pointer so per-exec hot paths test one load instead of
     * copying a std::function per campaign.
     */
    const MutationObserver *observer = nullptr;

    bool
    stopped() const
    {
        return stop && stop();
    }
};

/** One worker's private slice of the campaign. */
struct WorkerEnv
{
    CampaignShared *shared = nullptr;
    size_t worker_id = 0;
    Rng *rng = nullptr;
    exec::Executor *executor = nullptr;
    const mut::Mutator *mutator = nullptr;
    mut::Localizer *localizer = nullptr;
    /** This worker's covmap shard (null = profiling off). Only this
     *  worker writes it; the checkpoint owner reads it at merges. */
    obs::CovShard *cov_shard = nullptr;

    /** @name Filled in by the loop (worker telemetry) */
    /** @{ */
    uint64_t local_execs = 0;  ///< slots this worker executed
    uint64_t wait_us = 0;      ///< time spent in checkpoint barriers
    uint64_t wall_us = 0;      ///< workerLoop wall time
    /** @} */
};

/**
 * Publish a worker's current pipeline stage to the status board. One
 * relaxed load when nobody is watching (no status server, no tracer
 * watchdog) — the gate is the whole cost of an unobserved campaign.
 */
inline void
boardStage(const WorkerEnv &env, obs::WorkerStage stage,
           uint64_t slot = 0)
{
    if (obs::introspectionEnabled())
        obs::statusBoard().setStage(env.worker_id, stage, slot);
}

const char *
laneName(MutationLane lane)
{
    switch (lane) {
      case MutationLane::Seed:
        return "seed";
      case MutationLane::Argument:
        return "arg";
      case MutationLane::Structural:
        return "structural";
    }
    return "?";
}

uint64_t
microsSince(std::chrono::steady_clock::time_point start)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

/**
 * One timeline tick: a checkpoint's campaign facts plus the merged
 * covmap summary and policy posterior (both nullable). The fuzz layer
 * owns this mapping so obs::TimelineTick stays plain fields.
 */
obs::TimelineTick
makeTimelineTick(const Checkpoint &cp, size_t corpus_size,
                 const obs::CovMap *covmap,
                 const DecisionPolicy *policy)
{
    obs::TimelineTick tick;
    tick.execs = cp.execs;
    tick.edges = cp.edges;
    tick.blocks = cp.blocks;
    tick.crashes = cp.crashes;
    tick.corpus_size = corpus_size;
    if (covmap != nullptr) {
        const obs::CovSummary cov = covmap->summary();
        tick.have_cov = true;
        tick.cov_blocks_hit = cov.blocks_hit;
        tick.cov_edges_hit = cov.edges_hit;
        tick.cov_total_block_hits = cov.total_block_hits;
        tick.cov_frontier_size = cov.frontier_size;
        tick.cov_stray_edges = cov.stray_edges;
    }
    if (policy != nullptr) {
        tick.have_policy = true;
        tick.policy_name = policy->name();
        tick.pmm_share = policy->pmmShare();
        const size_t arms = policy->armCount();
        for (size_t arm = 0; arm < arms; ++arm) {
            const uint64_t pulls =
                policy->mergedPulls(static_cast<int>(arm));
            if (pulls == 0)
                continue;
            obs::TimelineArm entry;
            entry.arm = static_cast<int>(arm);
            entry.pulls = pulls;
            entry.wins = policy->mergedWins(static_cast<int>(arm));
            tick.arms.push_back(entry);
        }
    }
    return tick;
}

/**
 * Checkpoint stage. Runs in the worker that executed the slot
 * completing a grid boundary; that worker blocks until the ledger's
 * contiguous-prefix watermark covers every earlier slot (not just the
 * aggregate count — later-claimed slots finishing early must not
 * unblock it past a still-running earlier slot) and until every
 * earlier checkpoint has been emitted, then snapshots the campaign.
 * Both waits sleep on condition variables; the wait makes each
 * checkpoint a consistent prefix snapshot, so the timeline is monotone
 * no matter how slots interleaved across workers.
 */
void
maybeEmitCheckpoint(WorkerEnv &env, uint64_t slot)
{
    CampaignShared &shared = *env.shared;
    const uint64_t every = shared.opts->checkpoint_every;
    if (slot % every != 0)
        return;
    const uint64_t target = slot / every - 1;

    boardStage(env, obs::WorkerStage::Checkpoint, slot);
    if (shared.ledger->prefixCompleted() < slot ||
        shared.checkpoints_done.load(std::memory_order_acquire) !=
            target) {
        const auto wait_start = std::chrono::steady_clock::now();
        shared.ledger->waitForPrefix(slot);
        {
            std::unique_lock<std::mutex> lock(shared.checkpoint_mu);
            shared.checkpoint_cv.wait(lock, [&shared, target] {
                return shared.checkpoints_done.load(
                           std::memory_order_acquire) == target;
            });
        }
        env.wait_us += microsSince(wait_start);
    }

    obs::TraceSpan span(obs::SpanKind::Checkpoint, slot);
    Checkpoint cp;
    cp.execs = slot;
    cp.edges = shared.corpus->edgeCount();
    cp.blocks = shared.corpus->blockCount();
    cp.crashes = shared.crashes->uniqueCrashes();
    shared.board.push_back(cp);

    if (obs::timingEnabled()) {
        shared.metrics.checkpoint_edge_delta.record(
            static_cast<double>(cp.edges - shared.last_checkpoint_edges));
    }
    if (auto *sink = obs::sink()) {
        sink->event(
            "coverage_checkpoint",
            {{"execs", cp.execs},
             {"edges", cp.edges},
             {"blocks", cp.blocks},
             {"crashes", cp.crashes},
             {"edge_delta", cp.edges - shared.last_checkpoint_edges},
             {"corpus_size", shared.corpus->size()}});
    }
    shared.last_checkpoint_edges = cp.edges;
    // Covmap merge point: still before the checkpoints_done publish,
    // so consecutive boundary owners never merge concurrently. Shards
    // of workers running slots past this boundary may already hold a
    // few of their hits — window boundaries are approximate under
    // concurrency, the cumulative map is exact.
    if (shared.opts->covmap != nullptr)
        shared.opts->covmap->onCheckpoint(slot, shared.registry);
    // Policy posterior merge: same serialized-owner discipline. Rewards
    // recorded after this merge fold in at the next boundary.
    if (shared.policy != nullptr)
        shared.policy->onCheckpoint(slot);
    // Timeline sample: after both merges (so the tick sees this
    // boundary's covmap summary and posterior), still before the
    // publish — samples are serialized and land exactly on the grid.
    if (shared.opts->timeline != nullptr) {
        shared.opts->timeline->onCheckpoint(
            makeTimelineTick(cp, shared.corpus->size(),
                             shared.opts->covmap, shared.policy),
            shared.registry);
    }
    {
        std::lock_guard<std::mutex> lock(shared.checkpoint_mu);
        shared.checkpoints_done.store(target + 1,
                                      std::memory_order_release);
    }
    shared.checkpoint_cv.notify_all();
}

/**
 * Execute + triage/admit stages for one mutant. Claims one virtual-time
 * slot (after instantiation, so a stale site never wastes budget),
 * runs the program, records crashes, offers it to the corpus, tallies
 * and traces the outcome, then retires the slot and runs the checkpoint
 * stage. Returns false when no slot could be claimed (budget spent).
 *
 * `base`/`base_result` identify the program the mutant was derived
 * from (argument lane only); they exist solely for the campaign's
 * mutation observer and may be null.
 *
 * `arm` is the policy reward arm the mutant is attributed to (-1 for
 * unattributed executions, i.e. the seed stage): after triage/admit
 * the policy receives a Reward{new_edges, new_blocks, crash} stamped
 * with the slot, so reward feedback lands on the same virtual-time
 * grid as everything else.
 */
bool
executeSlot(WorkerEnv &env, const prog::Prog &program,
            MutationLane lane, const mut::ArgLocation *site,
            bool bounded, int arm = -1,
            const prog::Prog *base = nullptr,
            const exec::ExecResult *base_result = nullptr)
{
    CampaignShared &shared = *env.shared;
    const BudgetGrant grant = shared.ledger->claim(1, bounded);
    if (grant.empty())
        return false;
    const uint64_t slot = grant.begin + 1;  // 1-based execution number

    boardStage(env, obs::WorkerStage::Execute, slot);
    auto result = env.executor->run(program);
    if (env.cov_shard != nullptr) {
        for (const auto &call : result.calls)
            env.cov_shard->recordTrace(call.blocks);
    }
    ++env.local_execs;

    boardStage(env, obs::WorkerStage::Triage, slot);
    size_t new_edges = 0;
    size_t new_blocks = 0;
    bool admitted;
    {
        obs::TraceSpan span(obs::SpanKind::Triage, slot);
        if (result.crashed)
            shared.crashes->record(result.bug_index, program, slot);
        admitted = shared.corpus->maybeAdd(program, result, slot,
                                           &new_edges, &new_blocks);
    }
    if (shared.policy != nullptr && arm >= 0) {
        Reward reward;
        reward.new_edges = new_edges;
        reward.new_blocks = new_blocks;
        reward.crash = result.crashed;
        reward.slot = slot;
        shared.policy->recordReward(env.worker_id, arm, reward);
    }

    LaneTally &tally = shared.lanes[laneIndex(lane)];
    tally.produced.fetch_add(1, std::memory_order_relaxed);
    if (admitted)
        tally.admitted.fetch_add(1, std::memory_order_relaxed);

    FuzzMetrics &metrics = shared.metrics;
    metrics.execs.inc();
    switch (lane) {
      case MutationLane::Seed:
        metrics.seed_programs.inc();
        break;
      case MutationLane::Argument:
        metrics.arg_mutants.inc();
        if (admitted)
            metrics.arg_admitted.inc();
        break;
      case MutationLane::Structural:
        metrics.structural_mutants.inc();
        if (admitted)
            metrics.structural_admitted.inc();
        break;
    }
    if (shared.observer != nullptr && *shared.observer &&
        site != nullptr && base != nullptr) {
        MutationEvent event;
        event.worker = env.worker_id;
        event.slot = slot;
        event.base = base;
        event.base_result = base_result;
        event.site = site;
        event.mutant = &program;
        event.result = &result;
        event.admitted = admitted;
        event.new_edges = new_edges;
        (*shared.observer)(event);
    }
    if (auto *sink = obs::sink()) {
        sink->event(
            "mutation_outcome",
            {{"execs", slot},
             {"lane", laneName(lane)},
             {"calls", program.calls.size()},
             {"admitted", admitted},
             {"crashed", result.crashed},
             {"new_edges", new_edges},
             {"site_call",
              site ? static_cast<int64_t>(site->call_index)
                   : int64_t{-1}}});
    }
    shared.ledger->complete(grant);
    maybeEmitCheckpoint(env, slot);
    return true;
}

}  // namespace

exec::ExecOptions
execOptionsFor(const FuzzOptions &opts)
{
    exec::ExecOptions exec_opts;
    exec_opts.deterministic = !opts.noisy;
    exec_opts.noise_seed = opts.seed ^ 0xabcdef;
    exec_opts.backend = opts.exec_backend;
    return exec_opts;
}

std::shared_ptr<Scheduler>
makeScheduler(const FuzzOptions &opts)
{
    if (opts.scheduler)
        return opts.scheduler;
    return std::make_shared<RecencyScheduler>();
}

namespace {

/**
 * Seed stage: generate `seed_corpus_size` programs from the worker's
 * RNG and execute them (unbounded claims — the whole seed corpus runs
 * even when the budget is smaller).
 */
void
seedStage(WorkerEnv &env, const kern::Kernel &kernel)
{
    const FuzzOptions &opts = *env.shared->opts;
    // One trace id covers the whole seed round: the generation span
    // plus every seed execution share it, so the trace shows seeding
    // as one unit of pipeline work.
    obs::TraceScope trace(obs::beginTrace());
    boardStage(env, obs::WorkerStage::Seed);
    // Injected seeds (fleet seed batches) run before the generated
    // corpus: they bootstrap the local corpus with fleet-wide coverage
    // so the generated seeds and every mutation round build on it.
    // Empty in every non-fleet campaign, leaving this stage — and the
    // golden timelines pinned on it — untouched.
    for (const auto &seed : opts.injected_seeds)
        executeSlot(env, seed, MutationLane::Seed, nullptr,
                    /*bounded=*/false, /*arm=*/-1);
    std::vector<prog::Prog> seeds;
    {
        obs::TraceSpan span(obs::SpanKind::Seed, opts.seed_corpus_size);
        seeds = prog::generateCorpus(*env.rng, kernel.table(),
                                     opts.seed_corpus_size,
                                     opts.mutator.gen);
    }
    for (const auto &seed : seeds)
        executeSlot(env, seed, MutationLane::Seed, nullptr,
                    /*bounded=*/false, /*arm=*/-1);
}

/** The staged mutation pipeline; returns when the budget is spent or
 *  the campaign's stop predicate fires. */
void
workerLoop(WorkerEnv &env, const kern::Kernel &kernel)
{
    const auto loop_start = std::chrono::steady_clock::now();
    CampaignShared &shared = *env.shared;
    const FuzzOptions &opts = *shared.opts;
    BudgetLedger &ledger = *shared.ledger;
    if (obs::traceEnabled() || obs::introspectionEnabled()) {
        obs::setRingLabel("worker" +
                          std::to_string(env.worker_id));
    }

    while (!ledger.exhausted() && !shared.stopped()) {
        if (shared.corpus->empty()) {
            // Everything crashed at seed time; regenerate. Concurrent
            // workers may all reseed here — harmless duplicated work in
            // an already-pathological campaign.
            seedStage(env, kernel);
            continue;
        }
        // One trace id per policy round: every stage below — and the
        // async localizer's inference hop — stamps its spans with it,
        // so a round is one reconstructible unit in the trace.
        obs::TraceScope trace(obs::beginTrace());

        DecisionContext ctx;
        ctx.corpus = shared.corpus;
        ctx.mutator = env.mutator;
        ctx.learned_localizer = env.localizer->learned();
        ctx.worker = env.worker_id;
        ctx.now_slot = ledger.claimed();

        // Schedule stage: the policy picks the base entry and
        // arbitrates this round's localization channel. The base
        // program is read in place: Corpus::pick's reference stays
        // valid for the whole campaign (deque storage) and admitted
        // programs are never written again. The base result is copied:
        // its CoverageSet may still be staged, and the first blocks()
        // or edges() read (a learned localizer's query) promotes it
        // under const, which must not happen on a set other workers
        // read too.
        Decision decision;
        exec::ExecResult base_result;
        {
            boardStage(env, obs::WorkerStage::Schedule);
            obs::TraceSpan span(obs::SpanKind::Schedule);
            decision = shared.policy->decide(ctx, *env.rng);
            base_result = decision.seed->result;
        }
        const prog::Prog &base_program = decision.seed->program;

        // Localize stage. The localizer reports which channel
        // *actually* answered (an async model can be forced onto the
        // random fallback), and the argument lane's rewards are
        // attributed to that channel.
        mut::Localization loc;
        {
            boardStage(env, obs::WorkerStage::Localize);
            obs::TraceSpan span(obs::SpanKind::Localize);
            loc = env.localizer->localizeChosen(
                base_program, base_result, *env.rng,
                opts.max_sites_per_base, decision.use_pmm);
            span.setArg(loc.sites.size());
        }
        const int arg_arm = shared.policy->armFor(
            decision.seed_bucket, mut::MutationType::ArgumentMutation,
            loc.channel);

        // Instantiate + execute per site on one scratch copy of the
        // base per round. Instantiation writes only the site's call
        // (resource rewiring reads the other calls' decls; length
        // fixups and regenerated pointees stay inside the call), so
        // saving that call before each mutant and moving it back
        // afterwards restores the base exactly, without copying the
        // rest of the program.
        prog::Prog mutant;
        if (!loc.sites.empty())
            mutant.calls = base_program.calls;
        for (const auto &site : loc.sites) {
            for (size_t m = 0;
                 m < opts.mutations_per_site && !ledger.exhausted();
                 ++m) {
                // A stale site (no such call) instantiates nothing.
                if (site.call_index >= mutant.calls.size())
                    break;
                prog::Call saved = mutant.calls[site.call_index];
                bool instantiated;
                {
                    boardStage(env, obs::WorkerStage::Instantiate);
                    obs::TraceSpan span(obs::SpanKind::Instantiate);
                    instantiated = env.mutator->instantiateArgMutation(
                        mutant, site, *env.rng);
                }
                if (instantiated) {
                    executeSlot(env, mutant, MutationLane::Argument,
                                &site, /*bounded=*/true, arg_arm,
                                &base_program, &base_result);
                }
                mutant.calls[site.call_index] = std::move(saved);
                if (!instantiated)
                    break;
            }
            if (ledger.exhausted() || shared.stopped())
                break;
        }

        // Structural mutations (insertion/removal) with the policy
        // choosing the operator class per mutant — the "existing
        // random mutators" lane. Structural operators never consult
        // the model, so their rewards sit on the Random channel.
        for (size_t s = 0; s < opts.structural_mutations_per_base &&
                           !ledger.exhausted();
             ++s) {
            prog::Prog mutant;
            mutant.calls = base_program.calls;
            mut::MutationType op;
            {
                boardStage(env, obs::WorkerStage::Instantiate);
                obs::TraceSpan span(obs::SpanKind::Instantiate, 1);
                op = shared.policy->pickOperator(ctx, decision,
                                                 *env.rng, mutant);
                switch (op) {
                  case mut::MutationType::ArgumentMutation: {
                    // Operator landed on arguments: one random-site
                    // mutant (the fallback lane even when a learned
                    // localizer is installed, §3.4).
                    mut::RandomLocalizer fallback;
                    auto fallback_sites =
                        fallback.localize(mutant, *env.rng, 1);
                    if (!fallback_sites.empty()) {
                        env.mutator->instantiateArgMutation(
                            mutant, fallback_sites[0], *env.rng);
                    }
                    break;
                  }
                  case mut::MutationType::CallInsertion:
                    env.mutator->insertCall(mutant, *env.rng);
                    break;
                  case mut::MutationType::CallRemoval:
                    env.mutator->removeCall(mutant, *env.rng);
                    break;
                }
            }
            executeSlot(env, mutant, MutationLane::Structural, nullptr,
                        /*bounded=*/true,
                        shared.policy->armFor(
                            decision.seed_bucket, op,
                            mut::LocalizerChannel::Random));
        }
    }
    boardStage(env, obs::WorkerStage::Idle);
    env.wall_us += microsSince(loop_start);
}

/**
 * Assemble the FuzzReport, set the end-of-run gauges, emit the
 * `campaign_summary` telemetry event (with final crash and per-lane
 * admission totals), then finalize the covmap and the timeline, in
 * that order (the timeline's final tick reads the settled covmap
 * summary). `wall_sec` is the campaign's wall-clock duration.
 */
FuzzReport
finalizeCampaign(CampaignShared &shared, double wall_sec,
                 size_t workers)
{
    FuzzReport report;
    report.timeline = std::move(shared.board);
    report.final_edges = shared.corpus->totalCoverage().edgeCount();
    report.final_blocks = shared.corpus->totalCoverage().blockCount();
    report.execs = shared.ledger->completed();
    report.corpus_size = shared.corpus->size();
    report.final_crashes = shared.crashes->uniqueCrashes();
    for (size_t lane = 0; lane < kMutationLanes; ++lane) {
        report.lanes[lane].produced =
            shared.lanes[lane].produced.load(std::memory_order_relaxed);
        report.lanes[lane].admitted =
            shared.lanes[lane].admitted.load(std::memory_order_relaxed);
    }

    const double execs_per_sec =
        wall_sec > 0.0 ? static_cast<double>(report.execs) / wall_sec
                       : 0.0;
    const FuzzMetrics &metrics = shared.metrics;
    auto rate = [](const obs::Counter &hit, const obs::Counter &total) {
        return total.value() == 0
                   ? 0.0
                   : static_cast<double>(hit.value()) /
                         static_cast<double>(total.value());
    };
    obs::Registry &reg = shared.registry;
    reg.gauge("fuzz.execs_per_sec").set(execs_per_sec);
    reg.gauge("fuzz.mutant_success.arg")
        .set(rate(metrics.arg_admitted, metrics.arg_mutants));
    reg.gauge("fuzz.mutant_success.structural")
        .set(rate(metrics.structural_admitted,
                  metrics.structural_mutants));
    // Fold any post-checkpoint rewards and publish the policy.* gauges
    // (workers have joined; the final merge is single-threaded).
    if (shared.policy != nullptr)
        shared.policy->exportMetrics(reg);
    if (auto *sink = obs::sink()) {
        sink->event(
            "campaign_summary",
            {{"execs", report.execs},
             {"wall_sec", wall_sec},
             {"execs_per_sec", execs_per_sec},
             {"final_edges", report.final_edges},
             {"final_blocks", report.final_blocks},
             {"corpus_size", report.corpus_size},
             {"unique_crashes", report.final_crashes},
             {"arg_mutants", metrics.arg_mutants.value()},
             {"structural_mutants", metrics.structural_mutants.value()},
             {"workers", workers},
             {"admitted_seed",
              report.lane(MutationLane::Seed).admitted},
             {"admitted_arg",
              report.lane(MutationLane::Argument).admitted},
             {"admitted_structural",
              report.lane(MutationLane::Structural).admitted},
             {"policy",
              shared.policy != nullptr ? shared.policy->name() : "?"}});
    }

    obs::CovMap *covmap = shared.opts->covmap;
    if (covmap != nullptr)
        covmap->finalize(report.execs, reg);
    if (shared.opts->timeline != nullptr) {
        Checkpoint final_cp;
        final_cp.execs = report.execs;
        final_cp.edges = report.final_edges;
        final_cp.blocks = report.final_blocks;
        final_cp.crashes = report.final_crashes;
        shared.opts->timeline->finalize(
            makeTimelineTick(final_cp, report.corpus_size, covmap,
                             shared.policy),
            reg);
    }
    return report;
}

CampaignOptions
normalized(CampaignOptions options)
{
    if (options.workers == 0)
        options.workers = 1;
    return options;
}

}  // namespace

CampaignEngine::CampaignEngine(const kern::Kernel &kernel,
                               CampaignOptions options,
                               LocalizerFactory make_localizer)
    : kernel_(kernel), opts_(normalized(std::move(options))),
      metrics_(obs::Registry::global()),
      policy_(makePolicy(opts_.fuzz)),
      mutator_(kernel.table(), opts_.fuzz.mutator),
      executors_(kernel, execOptionsFor(opts_.fuzz), opts_.workers,
                 metrics_),
      corpus_(opts_.workers, metrics_), crashes_(kernel, metrics_),
      ledger_(opts_.fuzz.exec_budget, opts_.fuzz.checkpoint_every)
{
    SP_ASSERT(make_localizer != nullptr,
              "campaign engine needs a localizer factory");
    rngs_.reserve(opts_.workers);
    localizers_.reserve(opts_.workers);
    for (size_t w = 0; w < opts_.workers; ++w) {
        // Worker 0's stream is the campaign seed itself
        // (splitSeed(seed, 0) == seed).
        rngs_.push_back(
            std::make_unique<Rng>(splitSeed(opts_.fuzz.seed, w)));
        auto localizer = make_localizer(w);
        SP_ASSERT(localizer != nullptr,
                  "localizer factory returned null for worker %zu", w);
        localizers_.push_back(std::move(localizer));
    }
}

FuzzReport
CampaignEngine::run()
{
    return runUntil({});
}

FuzzReport
CampaignEngine::runUntil(const StopPredicate &stop)
{
    SP_ASSERT(!ran_, "CampaignEngine::run/runUntil is one-shot");
    SP_ASSERT(!stop || opts_.workers == 1,
              "runUntil: a stop predicate needs workers = 1 (it would "
              "race the workers on corpus().totalCoverage())");
    ran_ = true;
    const auto wall_start = std::chrono::steady_clock::now();

    CampaignShared shared(metrics_);
    shared.opts = &opts_.fuzz;
    shared.corpus = &corpus_;
    shared.crashes = &crashes_;
    shared.ledger = &ledger_;
    policy_->beginCampaign(opts_.workers);
    shared.policy = policy_.get();
    if (opts_.on_mutation)
        shared.observer = &opts_.on_mutation;
    if (stop)
        shared.stop = [this, &stop] { return stop(*this); };

    // Live introspection: announce the worker lanes and register the
    // campaign-state provider /status and flight records embed. The
    // provider references this stack frame, so before the run returns it
    // is replaced by a frozen final snapshot (post-run scrapes still
    // see the campaign's end state). statusJson() invokes the provider
    // under the same mutex setStatusProvider() takes, so the swap in
    // ~ProviderGuard also *waits out* any in-flight invocation — once
    // it returns, nothing can touch these stack captures again.
    obs::statusBoard().reset(opts_.workers);
    std::function<std::string()> campaign_status = [&shared, this] {
        std::string out = "{\"workers\":";
        out += std::to_string(opts_.workers);
        out += ",\"corpus_size\":";
        out += std::to_string(corpus_.size());
        out += ",\"frontier_edges\":";
        out += std::to_string(corpus_.edgeCount());
        out += ",\"frontier_blocks\":";
        out += std::to_string(corpus_.blockCount());
        out += ",\"unique_crashes\":";
        out += std::to_string(crashes_.uniqueCrashes());
        out += ",\"budget\":";
        out += std::to_string(ledger_.budget());
        out += ",\"claimed\":";
        out += std::to_string(ledger_.claimed());
        out += ",\"completed\":";
        out += std::to_string(ledger_.completed());
        out += ",\"ledger_watermark\":";
        out += std::to_string(ledger_.prefixCompleted());
        out += ",\"checkpoints\":";
        out += std::to_string(shared.checkpoints_done.load(
            std::memory_order_acquire));
        out += ",\"policy\":";
        out += policy_->statusJson();
        out += "}";
        return out;
    };
    obs::setStatusProvider(campaign_status);
    struct ProviderGuard
    {
        const std::function<std::string()> &live;

        ~ProviderGuard()
        {
            std::string frozen = live();
            obs::setStatusProvider(
                [snapshot = std::move(frozen)] { return snapshot; });
        }
    } provider_guard{campaign_status};

    std::vector<WorkerEnv> envs(opts_.workers);
    for (size_t w = 0; w < opts_.workers; ++w) {
        WorkerEnv &env = envs[w];
        env.shared = &shared;
        env.worker_id = w;
        env.rng = rngs_[w].get();
        env.executor = &executors_.at(w);
        env.mutator = &mutator_;
        env.localizer = localizers_[w].get();
        if (opts_.fuzz.covmap != nullptr) {
            env.cov_shard = &opts_.fuzz.covmap->shard(
                w % opts_.fuzz.covmap->shardCount());
        }
    }

    // Seed stage: worker 0, on the calling thread, before any worker
    // thread exists — the generated corpus and its admission order are
    // deterministic regardless of worker count.
    seedStage(envs[0], kernel_);

    // Mutation stages: workers 1..N-1 on threads, worker 0 here (a
    // 1-worker campaign therefore never spawns a thread).
    std::vector<std::thread> threads;
    threads.reserve(opts_.workers - 1);
    for (size_t w = 1; w < opts_.workers; ++w) {
        threads.emplace_back(
            [this, &envs, w] { workerLoop(envs[w], kernel_); });
    }
    workerLoop(envs[0], kernel_);
    for (auto &thread : threads)
        thread.join();

    for (size_t w = 0; w < opts_.workers; ++w) {
        const WorkerEnv &env = envs[w];
        const double busy =
            env.wall_us > 0
                ? static_cast<double>(env.wall_us - env.wait_us) /
                      static_cast<double>(env.wall_us)
                : 0.0;
        metrics_.gauge(obs::workerMetric("fuzz.worker_busy_ratio", w))
            .set(busy);
    }

    const double wall_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    return finalizeCampaign(shared, wall_sec, opts_.workers);
}

}  // namespace sp::fuzz
