#include "data/harvest.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>

#include "obs/metrics.h"
#include "prog/serialize.h"
#include "util/logging.h"

namespace sp::data {

namespace {

struct HarvestMetrics
{
    obs::Counter &examples;
    obs::Counter &dropped;
    obs::Counter &shard_bytes;

    static HarvestMetrics &
    get()
    {
        auto &reg = obs::Registry::global();
        static HarvestMetrics metrics{
            reg.counter("data.harvest_examples"),
            reg.counter("data.harvest_dropped"),
            reg.counter("data.shard_bytes"),
        };
        return metrics;
    }
};

}  // namespace

Harvester::Harvester(const kern::Kernel &kernel, HarvestOptions opts)
    : kernel_(kernel), opts_(std::move(opts)), executor_(kernel),
      rng_(opts_.seed)
{
    if (::mkdir(opts_.dir.c_str(), 0755) != 0 && errno != EEXIST)
        SP_FATAL("cannot create harvest directory %s",
                 opts_.dir.c_str());
    shard_path_ = opts_.dir + "/" + opts_.shard_name;
    writer_ = std::make_unique<ShardWriter>(shard_path_,
                                            kernelFingerprint(kernel));
    thread_ = std::thread([this] { workerLoop(); });
}

Harvester::~Harvester()
{
    close();
}

fuzz::MutationObserver
Harvester::hook()
{
    return [this](const fuzz::MutationEvent &event) { observe(event); };
}

void
Harvester::observe(const fuzz::MutationEvent &event)
{
    // Worker-thread hot path: admitted argument mutants only, one
    // bounded copy, never a wait. Admission (new corpus edges) is the
    // live proxy for §3.1's "successful mutation"; the background
    // thread re-validates deterministically.
    if (!event.admitted || event.site == nullptr ||
        event.base == nullptr || event.mutant == nullptr)
        return;
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (closing_)
            return;
        std::lock_guard<std::mutex> stats_lock(stats_mu_);
        ++stats_.offered;
        if (queue_.size() >= opts_.queue_capacity) {
            ++stats_.dropped;
            HarvestMetrics::get().dropped.inc();
            return;
        }
        Item item;
        item.base.calls = event.base->calls;
        item.mutant.calls = event.mutant->calls;
        item.site = *event.site;
        queue_.push_back(std::move(item));
    }
    queue_cv_.notify_one();
}

void
Harvester::workerLoop()
{
    for (;;) {
        Item item;
        {
            std::unique_lock<std::mutex> lock(queue_mu_);
            queue_cv_.wait(lock, [this] {
                return closing_ || !queue_.empty();
            });
            if (queue_.empty()) {
                if (closing_)
                    return;
                continue;
            }
            item = std::move(queue_.front());
            queue_.pop_front();
        }
        process(item);
    }
}

Harvester::BaseEntry &
Harvester::baseEntryFor(const prog::Prog &base, uint64_t base_hash)
{
    auto it = bases_.find(base_hash);
    if (it != bases_.end())
        return *it->second;

    auto entry = std::make_unique<BaseEntry>();
    auto result = executor_.run(base);
    // Crashed bases are excluded (§5.1); a base that crashes only
    // under noise still qualifies — what matters is the deterministic
    // replay the examples will be trained against.
    if (!result.crashed) {
        entry->frontier =
            graph::alternativeFrontier(kernel_, result.coverage);
        entry->usable = !entry->frontier.empty() &&
                        entry->frontier.size() <= opts_.max_frontier;
        if (entry->usable) {
            entry->frontier_set.insert(entry->frontier.begin(),
                                       entry->frontier.end());
            entry->coverage = std::move(result.coverage);
            entry->split = splitOfBase(base_hash, opts_.seed,
                                       opts_.train_fraction);
            entry->record.base_hash = base_hash;
            entry->record.text = prog::formatProg(base);
            entry->record.blocks = entry->coverage.sortedBlocks();
            entry->record.edges = entry->coverage.edgeCount();
        }
    }
    return *bases_.emplace(base_hash, std::move(entry)).first->second;
}

void
Harvester::process(Item &item)
{
    const uint64_t base_hash = progKey(item.base);
    BaseEntry &entry = baseEntryFor(item.base, base_hash);
    auto discard = [this] {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.discarded;
    };
    if (!entry.usable) {
        discard();
        return;
    }

    // Deterministic replay of the mutant; the campaign may run noisy,
    // but examples must reflect the virtio-style collection discipline.
    auto mutant_result = executor_.run(item.mutant);
    auto new_blocks =
        entry.coverage.newBlocks(mutant_result.coverage);
    std::vector<uint32_t> reached;
    for (uint32_t b : new_blocks)
        if (entry.frontier_set.count(b))
            reached.push_back(b);
    if (reached.empty()) {
        discard();
        return;
    }
    std::sort(reached.begin(), reached.end());

    // Option-(c) target construction, same fraction mix as
    // collectDataset: mostly tight target sets, some noisy ones.
    static const double kFractions[] = {-1.0, -1.0, 0.25, 0.25, 0.5};
    core::RawExample example;
    example.mutate_sites.push_back(item.site);
    const double fraction =
        kFractions[rng_.below(sizeof(kFractions) /
                              sizeof(kFractions[0]))];
    std::unordered_set<uint32_t> targets;
    targets.insert(reached[rng_.below(reached.size())]);
    if (fraction > 0.0) {
        for (uint32_t b : entry.frontier) {
            if (rng_.chance(fraction))
                targets.insert(b);
        }
        for (uint32_t b : reached) {
            if (rng_.chance(fraction))
                targets.insert(b);
        }
    }
    example.targets.assign(targets.begin(), targets.end());
    example.canonicalize();

    if (!seen_.insert(core::exampleKey(example, base_hash)).second) {
        discard();
        return;
    }
    bool over = false;
    for (uint32_t b : example.targets)
        over |= (popularity_[b] >= opts_.popularity_cap);
    if (over) {
        discard();
        return;
    }
    for (uint32_t b : example.targets)
        ++popularity_[b];

    uint64_t bytes = 0;
    if (!entry.written) {
        bytes += writer_->append(entry.record);
        entry.written = true;
    }
    ExampleRecord record;
    record.base_hash = base_hash;
    record.split = entry.split;
    record.targets = example.targets;
    record.sites = example.mutate_sites;
    bytes += writer_->append(record);

    HarvestMetrics &metrics = HarvestMetrics::get();
    metrics.examples.inc();
    metrics.shard_bytes.inc(bytes);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.examples;
}

void
Harvester::close()
{
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (closing_)
            return;
        closing_ = true;
    }
    queue_cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    writer_->close();
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.bases = writer_->index().bases;
    stats_.bytes = writer_->bytesWritten();
}

HarvestStats
Harvester::stats() const
{
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
}

}  // namespace sp::data
