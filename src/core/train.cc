#include "core/train.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "obs/telemetry.h"
#include "obs/timer.h"
#include "util/logging.h"

namespace sp::core {

namespace {

/** Accumulates per-example set-overlap metrics. */
class MetricAccumulator
{
  public:
    void
    add(const std::vector<bool> &predicted,
        const std::vector<bool> &truth)
    {
        SP_ASSERT(predicted.size() == truth.size());
        size_t tp = 0, fp = 0, fn = 0;
        for (size_t i = 0; i < predicted.size(); ++i) {
            tp += (predicted[i] && truth[i]);
            fp += (predicted[i] && !truth[i]);
            fn += (!predicted[i] && truth[i]);
        }
        const double precision =
            tp + fp == 0 ? 0.0
                         : static_cast<double>(tp) /
                               static_cast<double>(tp + fp);
        const double recall =
            tp + fn == 0 ? 1.0
                         : static_cast<double>(tp) /
                               static_cast<double>(tp + fn);
        const double f1 = precision + recall == 0.0
                              ? 0.0
                              : 2.0 * precision * recall /
                                    (precision + recall);
        const double jaccard =
            tp + fp + fn == 0 ? 1.0
                              : static_cast<double>(tp) /
                                    static_cast<double>(tp + fp + fn);
        precision_ += precision;
        recall_ += recall;
        f1_ += f1;
        jaccard_ += jaccard;
        ++count_;
    }

    SelectorMetrics
    finish() const
    {
        SelectorMetrics metrics;
        metrics.examples = count_;
        if (count_ == 0)
            return metrics;
        const auto n = static_cast<double>(count_);
        metrics.precision = precision_ / n;
        metrics.recall = recall_ / n;
        metrics.f1 = f1_ / n;
        metrics.jaccard = jaccard_ / n;
        return metrics;
    }

  private:
    double precision_ = 0.0;
    double recall_ = 0.0;
    double f1_ = 0.0;
    double jaccard_ = 0.0;
    size_t count_ = 0;
};

std::vector<bool>
truthMask(const std::vector<float> &labels)
{
    std::vector<bool> mask(labels.size());
    for (size_t i = 0; i < labels.size(); ++i)
        mask[i] = labels[i] > 0.5f;
    return mask;
}

// --- Trainer-state blob (the nn/serialize trainer section) ------------
//
// A flat little struct-of-scalars encoding; versioned so a stale
// checkpoint from a future layout fails loudly instead of misreading.

constexpr uint32_t kTrainerStateVersion = 1;

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    const size_t at = out.size();
    out.resize(at + sizeof(v));
    std::memcpy(out.data() + at, &v, sizeof(v));
}

void
putF64(std::vector<uint8_t> &out, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(out, bits);
}

void
putMetrics(std::vector<uint8_t> &out, const SelectorMetrics &m)
{
    putF64(out, m.f1);
    putF64(out, m.precision);
    putF64(out, m.recall);
    putF64(out, m.jaccard);
    putU64(out, m.examples);
}

class BlobReader
{
  public:
    explicit BlobReader(const std::vector<uint8_t> &blob) : blob_(blob)
    {
    }

    uint64_t
    u64()
    {
        SP_ASSERT(pos_ + sizeof(uint64_t) <= blob_.size(),
                  "trainer state truncated");
        uint64_t v;
        std::memcpy(&v, blob_.data() + pos_, sizeof(v));
        pos_ += sizeof(v);
        return v;
    }

    double
    f64()
    {
        const uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    SelectorMetrics
    metrics()
    {
        SelectorMetrics m;
        m.f1 = f64();
        m.precision = f64();
        m.recall = f64();
        m.jaccard = f64();
        m.examples = static_cast<size_t>(u64());
        return m;
    }

  private:
    const std::vector<uint8_t> &blob_;
    size_t pos_ = 0;
};

std::vector<uint8_t>
encodeTrainerState(const TrainOptions &opts, size_t per_epoch,
                   size_t kept, const Rng &rng,
                   const std::vector<size_t> &order,
                   const TrainHistory &history, int next_epoch,
                   double best_f1, int stale_epochs)
{
    std::vector<uint8_t> blob;
    putU64(blob, kTrainerStateVersion);
    putU64(blob, opts.seed);
    putU64(blob, per_epoch);
    putU64(blob, kept);
    putU64(blob, static_cast<uint64_t>(next_epoch));
    putF64(blob, best_f1);
    putU64(blob, static_cast<uint64_t>(stale_epochs));
    putMetrics(blob, history.best_valid);
    for (uint64_t lane : rng.state())
        putU64(blob, lane);
    // Epoch shuffles permute `order` in place, so the permutation is
    // cumulative trainer state, not derivable from the RNG alone.
    for (size_t position : order)
        putU64(blob, position);
    putU64(blob, history.epochs.size());
    for (const auto &record : history.epochs) {
        putU64(blob, static_cast<uint64_t>(record.epoch));
        putF64(blob, record.train_loss);
        putMetrics(blob, record.valid);
    }
    return blob;
}

/** Decode + validate; fatal on a checkpoint from different data/opts. */
void
decodeTrainerState(const std::vector<uint8_t> &blob,
                   const TrainOptions &opts, size_t per_epoch,
                   size_t kept, Rng &rng, std::vector<size_t> &order,
                   TrainHistory &history, int &next_epoch,
                   double &best_f1, int &stale_epochs)
{
    BlobReader in(blob);
    const uint64_t version = in.u64();
    SP_ASSERT(version == kTrainerStateVersion,
              "trainer state version %llu, expected %u",
              static_cast<unsigned long long>(version),
              kTrainerStateVersion);
    const uint64_t seed = in.u64();
    const uint64_t ckpt_per_epoch = in.u64();
    const uint64_t ckpt_kept = in.u64();
    SP_ASSERT(seed == opts.seed && ckpt_per_epoch == per_epoch &&
                  ckpt_kept == kept,
              "resume checkpoint was trained with different data or "
              "options (seed %llu/%llu, examples %llu/%zu, kept "
              "%llu/%zu)",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(ckpt_per_epoch),
              per_epoch, static_cast<unsigned long long>(ckpt_kept),
              kept);
    next_epoch = static_cast<int>(in.u64());
    best_f1 = in.f64();
    stale_epochs = static_cast<int>(in.u64());
    history.best_valid = in.metrics();
    std::array<uint64_t, 4> state;
    for (auto &lane : state)
        lane = in.u64();
    rng.setState(state);
    order.resize(kept);
    for (auto &position : order)
        position = static_cast<size_t>(in.u64());
    const uint64_t epochs = in.u64();
    history.epochs.clear();
    for (uint64_t i = 0; i < epochs; ++i) {
        EpochRecord record;
        record.epoch = static_cast<int>(in.u64());
        record.train_loss = in.f64();
        record.valid = in.metrics();
        history.epochs.push_back(record);
    }
}

}  // namespace

size_t
InMemorySource::prepare(Rng &rng, size_t per_epoch)
{
    // Materialize (graph, labels) once: the encodings are identical
    // across epochs, and rebuilding them dominates training time.
    cache_.clear();
    cache_.reserve(per_epoch);
    std::vector<size_t> candidates(dataset_.train.size());
    for (size_t i = 0; i < candidates.size(); ++i)
        candidates[i] = i;
    for (size_t i = candidates.size(); i > 1; --i)
        std::swap(candidates[i - 1], candidates[rng.below(i)]);
    for (size_t i = 0; i < per_epoch; ++i) {
        auto example =
            materializeExample(dataset_, dataset_.train[candidates[i]]);
        if (example.second.empty())
            continue;
        cache_.push_back(std::move(example));
    }
    return cache_.size();
}

void
InMemorySource::beginEpoch(const std::vector<size_t> &order)
{
    order_ = &order;
    pos_ = 0;
}

std::pair<const graph::EncodedGraph *, const std::vector<float> *>
InMemorySource::next()
{
    SP_ASSERT(order_ != nullptr && pos_ < order_->size());
    const auto &item = cache_[(*order_)[pos_++]];
    return {&item.first, &item.second};
}

TrainHistory
trainPmm(Pmm &model, const Dataset &dataset, const TrainOptions &opts)
{
    InMemorySource source(dataset);
    return trainPmmFromSource(model, dataset, source, opts);
}

TrainHistory
trainPmmFromSource(Pmm &model, const Dataset &dataset,
                   ExampleSource &source, const TrainOptions &opts)
{
    TrainHistory history;
    if (dataset.train.empty()) {
        SP_WARN("trainPmm: empty training split");
        return history;
    }

    Rng rng(opts.seed);
    nn::Adam optimizer(model.parameters(), opts.learning_rate, 0.9f,
                       0.999f, 1e-8f, opts.weight_decay);

    const size_t per_epoch =
        opts.max_train_examples == 0
            ? dataset.train.size()
            : std::min(dataset.train.size(), opts.max_train_examples);
    const size_t kept = source.prepare(rng, per_epoch);

    std::vector<size_t> order(kept);
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;

    int start_epoch = 0;
    double best_f1 = -1.0;
    int stale_epochs = 0;
    if (opts.resume) {
        SP_ASSERT(!opts.checkpoint_path.empty(),
                  "TrainOptions::resume requires checkpoint_path");
        nn::AdamState adam_state;
        std::vector<uint8_t> blob;
        if (nn::loadCheckpoint(model, opts.checkpoint_path, &adam_state,
                               &blob) &&
            !blob.empty()) {
            optimizer.restore(adam_state);
            decodeTrainerState(blob, opts, per_epoch, kept, rng, order,
                               history, start_epoch, best_f1,
                               stale_epochs);
            if (opts.verbose) {
                SP_INFORM("resuming from %s at epoch %d (best F1 "
                          "%.3f)",
                          opts.checkpoint_path.c_str(), start_epoch,
                          best_f1);
            }
        } else {
            SP_WARN("no resumable checkpoint at %s; training from "
                    "scratch",
                    opts.checkpoint_path.c_str());
        }
    }

    for (int epoch = start_epoch; epoch < opts.epochs; ++epoch) {
        SP_TIMED("train.epoch_us");
        // Shuffle example order.
        for (size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);

        double loss_total = 0.0;
        size_t trained = 0;
        source.beginEpoch(order);
        for (size_t oi = 0; oi < order.size(); ++oi) {
            const auto [graph, labels] = source.next();
            std::vector<float> weights(labels->size());
            for (size_t i = 0; i < labels->size(); ++i)
                weights[i] =
                    (*labels)[i] > 0.5f ? opts.pos_weight : 1.0f;

            model.zeroGrad();
            nn::Tensor logits = model.forward(*graph, &rng, true);
            nn::Tensor loss =
                nn::bceWithLogits(logits, *labels, weights);
            loss.backward();
            optimizer.clipGradNorm(opts.grad_clip);
            optimizer.step();
            loss_total += loss.item();
            ++trained;
        }

        EpochRecord record;
        record.epoch = epoch;
        record.train_loss =
            trained == 0 ? 0.0 : loss_total / static_cast<double>(trained);
        record.valid = evaluatePmm(model, dataset, dataset.valid);
        history.epochs.push_back(record);
        if (auto *sink = obs::sink()) {
            sink->event("train_epoch",
                        {{"epoch", epoch},
                         {"train_loss", record.train_loss},
                         {"valid_f1", record.valid.f1},
                         {"valid_precision", record.valid.precision},
                         {"valid_recall", record.valid.recall},
                         {"valid_jaccard", record.valid.jaccard},
                         {"examples", trained}});
        }
        if (opts.verbose) {
            SP_INFORM("epoch %d: loss %.4f valid F1 %.3f", epoch,
                      record.train_loss, record.valid.f1);
        }

        bool improved = false;
        if (record.valid.f1 > best_f1 + 1e-4) {
            best_f1 = record.valid.f1;
            history.best_valid = record.valid;
            stale_epochs = 0;
            improved = true;
        } else {
            ++stale_epochs;
        }
        if (!opts.checkpoint_path.empty()) {
            const nn::AdamState adam_state = optimizer.snapshot();
            const std::vector<uint8_t> blob = encodeTrainerState(
                opts, per_epoch, kept, rng, order, history, epoch + 1,
                best_f1, stale_epochs);
            nn::saveCheckpoint(model, opts.checkpoint_path,
                               &adam_state, &blob);
        }
        if (!improved && stale_epochs > opts.patience)
            break;
    }
    if (history.best_valid.examples == 0 && !history.epochs.empty())
        history.best_valid = history.epochs.back().valid;

    // Decision-threshold sweep on the validation split.
    double best_threshold_f1 = -1.0;
    for (float threshold : {0.3f, 0.35f, 0.4f, 0.45f, 0.5f, 0.55f,
                            0.6f}) {
        auto metrics =
            evaluatePmm(model, dataset, dataset.valid, threshold);
        if (metrics.f1 > best_threshold_f1) {
            best_threshold_f1 = metrics.f1;
            history.best_threshold = threshold;
        }
    }
    return history;
}

SelectorMetrics
evaluatePmm(const Pmm &model, const Dataset &dataset,
            const std::vector<RawExample> &split, float threshold)
{
    MetricAccumulator acc;
    // One encode buffer for the whole sweep; predict() runs in
    // inference mode, so the sweep is allocation-free at steady state.
    graph::EncodedGraph graph;
    std::vector<float> labels;
    for (const auto &example : split) {
        materializeExampleInto(dataset, example, graph, labels);
        if (labels.empty())
            continue;
        const auto probs = model.predict(graph);
        std::vector<bool> predicted(probs.size());
        bool any = false;
        for (size_t i = 0; i < probs.size(); ++i) {
            predicted[i] = probs[i] >= threshold;
            any |= predicted[i];
        }
        if (!any && !probs.empty()) {
            // Always select at least the top-scoring argument.
            size_t best = 0;
            for (size_t i = 1; i < probs.size(); ++i)
                if (probs[i] > probs[best])
                    best = i;
            predicted[best] = true;
        }
        acc.add(predicted, truthMask(labels));
    }
    return acc.finish();
}

SelectorMetrics
evaluateRandomSelector(const Dataset &dataset,
                       const std::vector<RawExample> &split, size_t k,
                       uint64_t seed)
{
    Rng rng(seed);
    MetricAccumulator acc;
    for (const auto &example : split) {
        auto [graph, labels] = materializeExample(dataset, example);
        if (labels.empty())
            continue;
        std::vector<bool> predicted(labels.size(), false);
        const size_t take = std::min(k, labels.size());
        for (size_t i : rng.sampleIndices(labels.size(), take))
            predicted[i] = true;
        acc.add(predicted, truthMask(labels));
        (void)graph;
    }
    return acc.finish();
}

}  // namespace sp::core
