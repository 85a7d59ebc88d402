// Tests for the core module: dataset pipeline, PMM shapes and training
// dynamics, the inference service, the PMM localizer, and directed
// fuzzing machinery.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <unordered_set>

#include "core/dataset.h"
#include "core/directed.h"
#include "core/infer.h"
#include "core/pmm.h"
#include "core/snowplow.h"
#include "core/train.h"
#include "kernel/subsystems.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace sp::core {
namespace {

const kern::Kernel &
testKernel()
{
    static kern::Kernel kernel = [] {
        kern::KernelGenParams params;
        params.seed = 10;
        params.num_syscalls = 10;
        return kern::buildBaseKernel(params);
    }();
    return kernel;
}

const Dataset &
smallDataset()
{
    static Dataset dataset = [] {
        DatasetOptions opts;
        opts.corpus_size = 60;
        opts.mutations_per_base = 60;
        opts.seed = 3;
        return collectDataset(testKernel(), opts);
    }();
    return dataset;
}

TEST(Dataset, PipelineProducesSplitsAndStats)
{
    const auto &dataset = smallDataset();
    EXPECT_GT(dataset.bases.size(), 30u);
    EXPECT_FALSE(dataset.train.empty());
    EXPECT_FALSE(dataset.eval.empty());
    EXPECT_GT(dataset.stats.mean_args_per_test, 5.0);
    EXPECT_GT(dataset.stats.total_successful_mutations, 100u);
    EXPECT_GT(dataset.stats.mean_target_set_size, 0.0);
}

TEST(Dataset, SplitsAreDisjointByBase)
{
    const auto &dataset = smallDataset();
    std::unordered_set<uint32_t> train_bases, other_bases;
    for (const auto &example : dataset.train)
        train_bases.insert(example.base_index);
    for (const auto &example : dataset.valid)
        other_bases.insert(example.base_index);
    for (const auto &example : dataset.eval)
        other_bases.insert(example.base_index);
    for (uint32_t base : train_bases)
        EXPECT_EQ(other_bases.count(base), 0u);
}

TEST(Dataset, ExamplesHaveGroundTruthOnFrontier)
{
    const auto &dataset = smallDataset();
    const auto &example = dataset.train.front();
    EXPECT_FALSE(example.targets.empty());
    EXPECT_FALSE(example.mutate_sites.empty());
    // Targets must be uncovered in the base's coverage.
    const auto &blocks =
        dataset.base_results[example.base_index].coverage.blocks();
    for (uint32_t t : example.targets)
        EXPECT_EQ(std::count(blocks.begin(), blocks.end(), t), 0);
}

TEST(Dataset, MaterializeLabelsMatchSites)
{
    const auto &dataset = smallDataset();
    const auto &example = dataset.train.front();
    auto [graph, labels] = materializeExample(dataset, example);
    EXPECT_EQ(labels.size(), graph.argument_nodes.size());
    size_t positives = 0;
    for (float label : labels)
        positives += (label > 0.5f);
    EXPECT_EQ(positives, example.mutate_sites.size());
    // Some target flags must be set in the encoding.
    int flagged = 0;
    for (int32_t f : graph.target_flag)
        flagged += f;
    EXPECT_EQ(static_cast<size_t>(flagged), example.targets.size());
}

TEST(Dataset, DeterministicForSeed)
{
    DatasetOptions opts;
    opts.corpus_size = 20;
    opts.mutations_per_base = 30;
    opts.seed = 8;
    auto a = collectDataset(testKernel(), opts);
    auto b = collectDataset(testKernel(), opts);
    EXPECT_EQ(a.train.size(), b.train.size());
    EXPECT_EQ(a.stats.total_successful_mutations,
              b.stats.total_successful_mutations);
}

TEST(Pmm, ForwardShapesAndDeterminism)
{
    const auto &dataset = smallDataset();
    PmmConfig config;
    config.dim = 16;
    config.token_dim = 8;
    config.gnn_layers = 2;
    Pmm model(config);
    EXPECT_GT(model.parameterCount(), 1000);

    auto [graph, labels] = materializeExample(dataset,
                                              dataset.train.front());
    auto probs_a = model.predict(graph);
    auto probs_b = model.predict(graph);
    ASSERT_EQ(probs_a.size(), labels.size());
    for (size_t i = 0; i < probs_a.size(); ++i) {
        EXPECT_FLOAT_EQ(probs_a[i], probs_b[i]);
        EXPECT_GE(probs_a[i], 0.0f);
        EXPECT_LE(probs_a[i], 1.0f);
    }
}

uint32_t
bitsOf(float v)
{
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

// Widths that are not multiples of 8, so the 4-wide and scalar column
// tails of the GEMM and the row kernels run (dim 22 = 8 + 8 + 4 + 2,
// head_hidden 12 = 8 + 4, and a token projection reducing over
// 6 * 10 = 60).
PmmConfig
oddWidthConfig(bool attention)
{
    PmmConfig config;
    config.dim = 22;
    config.token_dim = 6;
    config.head_hidden = 12;
    config.use_attention = attention;
    return config;
}

// A fresh Linear has zero biases, which would hide a pass that drops a
// relation's bias; give every parameter a seeded random value instead.
void
randomizeParameters(Pmm &model, uint64_t seed)
{
    Rng rng(seed);
    for (const auto &p : model.parameters()) {
        nn::Tensor tensor = p.tensor;
        for (float &v : tensor.mutableData())
            v = static_cast<float>(rng.gaussian()) * 0.3f;
    }
}

TEST(Pmm, PredictMatchesTrainingModeForward)
{
    // The tape-free predict() must be the taped forward bit for bit:
    // same embedding sums, GEMM reduction order, destination-row
    // aggregation, layer norms and head, for both aggregations.
    const auto &dataset = smallDataset();
    const size_t count = std::min<size_t>(24, dataset.train.size());
    ASSERT_GE(count, 20u);
    for (bool attention : {false, true}) {
        for (PmmConfig config : {oddWidthConfig(attention), PmmConfig{}}) {
            config.use_attention = attention;
            Pmm model(config);
            randomizeParameters(model, 17);
            for (size_t g = 0; g < count; ++g) {
                auto [graph, labels] =
                    materializeExample(dataset, dataset.train[g]);
                nn::Tensor taped = nn::sigmoid(model.forward(graph));
                auto fast = model.predict(graph);
                ASSERT_EQ(fast.size(), taped.data().size());
                for (size_t i = 0; i < fast.size(); ++i) {
                    ASSERT_EQ(bitsOf(fast[i]), bitsOf(taped.data()[i]))
                        << "attention " << attention << " dim "
                        << config.dim << " graph " << g << " arg " << i
                        << ": " << fast[i] << " vs " << taped.data()[i];
                }
            }
        }
    }
}

TEST(Pmm, PredictBatchMatchesIndividualPredictions)
{
    const auto &dataset = smallDataset();
    std::vector<graph::EncodedGraph> graphs;
    for (size_t i = 0; i < std::min<size_t>(5, dataset.train.size());
         ++i) {
        graphs.push_back(
            materializeExample(dataset, dataset.train[i]).first);
    }
    graphs.emplace_back();  // empty graph: must yield an empty result

    std::vector<const graph::EncodedGraph *> pointers;
    for (const auto &g : graphs)
        pointers.push_back(&g);
    for (bool attention : {false, true}) {
        Pmm model(oddWidthConfig(attention));
        randomizeParameters(model, 23);
        auto batched = model.predictBatch(pointers);
        ASSERT_EQ(batched.size(), graphs.size());
        for (size_t i = 0; i < graphs.size(); ++i) {
            auto individual = model.predict(graphs[i]);
            ASSERT_EQ(batched[i].size(), individual.size())
                << "graph " << i;
            // Block-diagonal batching is per-row exact.
            for (size_t j = 0; j < individual.size(); ++j) {
                EXPECT_EQ(bitsOf(batched[i][j]), bitsOf(individual[j]))
                    << "attention " << attention << " graph " << i
                    << " arg " << j;
            }
        }
        EXPECT_TRUE(batched.back().empty());
    }
}

TEST(Pmm, GradientsReachEveryParameter)
{
    const auto &dataset = smallDataset();
    PmmConfig config;
    config.dim = 16;
    config.token_dim = 8;
    config.gnn_layers = 1;
    Pmm model(config);
    auto [graph, labels] = materializeExample(dataset,
                                              dataset.train.front());
    std::vector<float> weights(labels.size(), 1.0f);
    model.zeroGrad();
    Rng rng(1);
    auto loss = nn::bceWithLogits(model.forward(graph, &rng, false),
                                  labels, weights);
    loss.backward();

    // Most parameter tensors must receive nonzero gradient. (Relations
    // with no edges of that kind in this graph legitimately get none.)
    size_t with_grad = 0;
    for (const auto &p : model.parameters()) {
        bool any = false;
        for (float g : p.tensor.grad())
            any |= (g != 0.0f);
        with_grad += any;
    }
    EXPECT_GT(with_grad, model.parameters().size() / 2);
}

TEST(Pmm, OverfitsASingleExample)
{
    const auto &dataset = smallDataset();
    PmmConfig config;
    config.dim = 16;
    config.token_dim = 8;
    config.gnn_layers = 2;
    config.dropout = 0.0f;
    Pmm model(config);

    auto [graph, labels] = materializeExample(dataset,
                                              dataset.train.front());
    std::vector<float> weights(labels.size());
    for (size_t i = 0; i < labels.size(); ++i)
        weights[i] = labels[i] > 0.5f ? 4.0f : 1.0f;

    nn::Adam opt(model.parameters(), 0.01f);
    float first_loss = 0.0f, last_loss = 0.0f;
    for (int step = 0; step < 60; ++step) {
        model.zeroGrad();
        auto loss = nn::bceWithLogits(model.forward(graph), labels,
                                      weights);
        loss.backward();
        opt.step();
        if (step == 0)
            first_loss = loss.item();
        last_loss = loss.item();
    }
    EXPECT_LT(last_loss, first_loss * 0.2f);

    // Predictions should now match the labels.
    auto probs = model.predict(graph);
    for (size_t i = 0; i < labels.size(); ++i) {
        if (labels[i] > 0.5f) {
            EXPECT_GT(probs[i], 0.5f) << i;
        }
    }
}


TEST(Pmm, AttentionVariantForwardAndLearning)
{
    const auto &dataset = smallDataset();
    PmmConfig config;
    config.dim = 16;
    config.token_dim = 8;
    config.gnn_layers = 2;
    config.dropout = 0.0f;
    config.use_attention = true;
    Pmm model(config);

    auto [graph, labels] = materializeExample(dataset,
                                              dataset.train.front());
    auto probs = model.predict(graph);
    ASSERT_EQ(probs.size(), labels.size());

    // The attention variant must also be able to overfit one example.
    std::vector<float> weights(labels.size());
    for (size_t i = 0; i < labels.size(); ++i)
        weights[i] = labels[i] > 0.5f ? 4.0f : 1.0f;
    nn::Adam opt(model.parameters(), 0.01f);
    float first = 0.0f, last = 0.0f;
    for (int step = 0; step < 50; ++step) {
        model.zeroGrad();
        auto loss = nn::bceWithLogits(model.forward(graph), labels,
                                      weights);
        loss.backward();
        opt.step();
        if (step == 0)
            first = loss.item();
        last = loss.item();
    }
    EXPECT_LT(last, first * 0.5f);
}

TEST(Pmm, CheckpointRoundTrip)
{
    PmmConfig config;
    config.dim = 16;
    config.token_dim = 8;
    Pmm model(config);
    const std::string path = "/tmp/sp_pmm_ckpt_test.bin";
    nn::saveParameters(model, path);
    PmmConfig config2 = config;
    config2.init_seed = 999;
    Pmm restored(config2);
    ASSERT_TRUE(nn::loadParameters(restored, path));
    for (size_t i = 0; i < model.parameters().size(); ++i) {
        EXPECT_EQ(model.parameters()[i].tensor.data(),
                  restored.parameters()[i].tensor.data());
    }
    std::remove(path.c_str());
}

TEST(Train, MetricsAccumulatorSanity)
{
    // Rand-0-like degenerate input: selecting nothing with nonempty
    // truth gives recall 0.
    const auto &dataset = smallDataset();
    auto metrics = evaluateRandomSelector(dataset, dataset.eval, 1, 5);
    EXPECT_GT(metrics.examples, 0u);
    EXPECT_GE(metrics.f1, 0.0);
    EXPECT_LE(metrics.f1, 1.0);
    EXPECT_GE(metrics.jaccard, 0.0);
    EXPECT_LE(metrics.jaccard, metrics.f1 + 1e-9);
}

TEST(Infer, AsyncServiceMatchesSyncPredictions)
{
    const auto &dataset = smallDataset();
    PmmConfig config;
    config.dim = 16;
    config.token_dim = 8;
    Pmm model(config);
    InferenceService service(model, 2);

    std::vector<std::future<std::vector<float>>> futures;
    std::vector<std::vector<float>> expected;
    for (size_t i = 0; i < std::min<size_t>(8, dataset.train.size());
         ++i) {
        auto [graph, labels] = materializeExample(dataset,
                                                  dataset.train[i]);
        expected.push_back(model.predict(graph));
        futures.push_back(service.submit(std::move(graph)));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
        auto probs = futures[i].get();
        ASSERT_EQ(probs.size(), expected[i].size());
        for (size_t j = 0; j < probs.size(); ++j)
            EXPECT_FLOAT_EQ(probs[j], expected[i][j]);
    }
    auto stats = service.stats();
    EXPECT_EQ(stats.completed, futures.size());
    EXPECT_GT(stats.mean_latency_us, 0.0);
}

TEST(Snowplow, PmmLocalizerReturnsValidSites)
{
    const auto &kernel = testKernel();
    PmmConfig config;
    config.dim = 16;
    config.token_dim = 8;
    Pmm model(config);
    PmmLocalizer localizer(kernel, model);

    Rng rng(7);
    auto program = prog::generateProg(rng, kernel.table());
    auto sites = localizer.localize(program, rng, 4);
    EXPECT_GE(sites.size(), 1u);
    EXPECT_LE(sites.size(), 4u);
    for (const auto &site : sites) {
        ASSERT_LT(site.call_index, program.calls.size());
        // Paths decode.
        prog::argAtPath(program.calls[site.call_index], site.point.path);
    }
    EXPECT_GT(localizer.modelQueries() + localizer.fallbackQueries(), 0u);
}

TEST(Directed, DistanceMapIsConsistent)
{
    const auto &kernel = testKernel();
    // Pick a bug block as target (deep).
    ASSERT_FALSE(kernel.bugs().empty());
    const uint32_t target = kernel.bugs()[0].block;
    auto dist = distanceToBlock(kernel, target);
    EXPECT_EQ(dist[target], 0u);

    // Every finite-distance block has a successor one closer.
    size_t finite = 0;
    for (uint32_t b = 0; b < kernel.blocks().size(); ++b) {
        if (dist[b] == ~0u || b == target)
            continue;
        ++finite;
        bool closer = false;
        for (uint32_t succ : kernel.successors(b))
            closer |= (dist[succ] != ~0u && dist[succ] + 1 <= dist[b]);
        EXPECT_TRUE(closer) << "block " << b;
    }
    EXPECT_GT(finite, 0u);
    // The handler entry of the target's syscall must reach it.
    const uint32_t entry =
        kernel.handler(kernel.block(target).handler).entry;
    EXPECT_NE(dist[entry], ~0u);
}

TEST(Directed, SyzDirectReachesShallowTarget)
{
    const auto &kernel = testKernel();
    // Choose a depth-1 block (reachable but off the default path).
    uint32_t target = kern::kNoBlock;
    for (const auto &bb : kernel.blocks()) {
        if (bb.depth == 1 && kernel.bugAt(bb.id) == nullptr) {
            target = bb.id;
            break;
        }
    }
    ASSERT_NE(target, kern::kNoBlock);

    DirectedOptions opts;
    opts.target_block = target;
    opts.exec_budget = 20000;
    opts.seed = 4;
    auto result = runSyzDirect(kernel, opts);
    EXPECT_TRUE(result.reached);
    EXPECT_GT(result.execs_to_reach, 0u);
    EXPECT_LE(result.execs_to_reach, opts.exec_budget);
}

}  // namespace
}  // namespace sp::core
