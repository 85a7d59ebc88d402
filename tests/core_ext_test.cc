// Tests for the extensions: the asynchronous PMM localizer (§3.4), the
// call-insertion localization heads (§6), and the new nn ops they use.

#include <gtest/gtest.h>

#include <cmath>

#include "core/insertion.h"
#include "core/snowplow.h"
#include "kernel/subsystems.h"
#include "nn/optimizer.h"
#include "prog/gen.h"

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

TEST(NnExt, FlattenPreservesValuesAndGradient)
{
    nn::Tensor m = nn::Tensor::fromMatrix({1, 2, 3, 4}, 2, 2,
                                          /*requires_grad=*/true);
    nn::Tensor flat = nn::flatten(m);
    EXPECT_EQ(flat.rows(), 4);
    EXPECT_FALSE(flat.isMatrix());
    EXPECT_FLOAT_EQ(flat.at(3), 4.0f);

    nn::sumAll(nn::mul(flat, flat)).backward();
    EXPECT_FLOAT_EQ(m.grad()[0], 2.0f);
    EXPECT_FLOAT_EQ(m.grad()[3], 8.0f);
}

TEST(NnExt, CrossEntropyKnownValueAndGradient)
{
    // Uniform logits over 4 classes: loss = log(4).
    nn::Tensor logits = nn::Tensor::fromMatrix({0, 0, 0, 0}, 1, 4,
                                               /*requires_grad=*/true);
    nn::Tensor loss = nn::crossEntropyRows(logits, {2});
    EXPECT_NEAR(loss.item(), std::log(4.0f), 1e-5f);
    loss.backward();
    // d/dlogit = softmax - onehot = 0.25 except target 0.25-1.
    EXPECT_NEAR(logits.grad()[0], 0.25f, 1e-5f);
    EXPECT_NEAR(logits.grad()[2], -0.75f, 1e-5f);
}

TEST(NnExt, CrossEntropyTrainsAClassifier)
{
    Rng rng(3);
    nn::Mlp mlp(rng, {2, 16, 3}, "clf");
    nn::Adam opt(mlp.parameters(), 0.02f);
    // Three linearly separable clusters.
    std::vector<float> xs = {0, 0, 1, 0, 0, 1};
    std::vector<int32_t> ys = {0, 1, 2};
    nn::Tensor x = nn::Tensor::fromMatrix(xs, 3, 2);
    float final_loss = 1e9f;
    for (int step = 0; step < 150; ++step) {
        mlp.zeroGrad();
        auto loss = nn::crossEntropyRows(mlp.forward(x), ys);
        loss.backward();
        opt.step();
        final_loss = loss.item();
    }
    EXPECT_LT(final_loss, 0.1f);
}

TEST(AsyncLocalizer, EventuallyMatchesSyncPredictions)
{
    const auto &kernel = testKernel();
    PmmConfig config;
    config.dim = 16;
    config.token_dim = 8;
    config.gnn_layers = 2;
    Pmm model(config);
    InferenceService service(model, 2);

    // localizeWithResult is the direct model path (the random-vs-model
    // arbitration lives in the fuzz loop's policy now).
    SnowplowOptions opts;
    PmmLocalizer sync_localizer(kernel, model, opts);
    auto landed_cache = std::make_shared<PredictionCache>(64);
    AsyncPmmLocalizer async_localizer(kernel, service, opts,
                                      landed_cache);

    Rng rng(5);
    auto program = prog::generateProg(rng, kernel.table());
    exec::Executor executor(kernel);
    auto result = executor.run(program);

    Rng rng_a(1), rng_b(1);
    auto expected = sync_localizer.localizeWithResult(program, result,
                                                      rng_a, 4);
    // First async call submits and answers with the fallback; polling
    // until the prediction lands must converge to the sync answer.
    std::vector<mut::ArgLocation> got;
    for (int attempt = 0; attempt < 200; ++attempt) {
        got = async_localizer.localizeWithResult(program, result, rng_b,
                                                 4);
        if (async_localizer.answeredFromModel() > 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GT(async_localizer.answeredFromModel(), 0u);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].call_index, expected[i].call_index);
        EXPECT_EQ(got[i].point.path, expected[i].point.path);
    }
    EXPECT_GT(async_localizer.answeredWhilePending(), 0u);
    EXPECT_EQ(async_localizer.submitted(), 1u);

    // The landing call answers from the ranked sites directly, not
    // through a counted cache lookup — every lookup so far was a
    // pending-side miss, so no hit may be on the books yet.
    EXPECT_EQ(landed_cache->hits(), 0u);
    const uint64_t misses_after_landing = landed_cache->misses();
    got = async_localizer.localizeWithResult(program, result, rng_b, 4);
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(landed_cache->hits(), 1u);
    EXPECT_EQ(landed_cache->misses(), misses_after_landing);
}

TEST(AsyncLocalizer, CampaignIntegrationRuns)
{
    const auto &kernel = testKernel();
    PmmConfig config;
    config.dim = 16;
    config.token_dim = 8;
    config.gnn_layers = 2;
    Pmm model(config);
    InferenceService service(model, 2);

    fuzz::CampaignOptions opts;
    opts.fuzz.exec_budget = 1500;
    opts.fuzz.seed = 3;
    opts.fuzz.seed_corpus_size = 12;
    auto engine = makeAsyncSnowplowCampaign(kernel, service, opts);
    auto report = engine->run();
    EXPECT_EQ(report.execs, 1500u);
    EXPECT_GT(report.final_edges, 50u);
}

TEST(Insertion, DatasetCollectsLabeledExamples)
{
    const auto &kernel = testKernel();
    InsertionDatasetOptions opts;
    opts.corpus_size = 40;
    opts.insertions_per_base = 40;
    auto dataset = collectInsertionDataset(kernel, opts);
    EXPECT_GT(dataset.successful_insertions, 10u);
    EXPECT_FALSE(dataset.train.empty());
    for (const auto &example : dataset.train) {
        ASSERT_LT(example.base_index, dataset.bases.size());
        EXPECT_LT(example.position,
                  dataset.bases[example.base_index].calls.size());
        EXPECT_LT(example.syscall_id, kernel.table().decls.size());
        EXPECT_FALSE(example.targets.empty());
    }
}

TEST(Insertion, ModelForwardShapes)
{
    const auto &kernel = testKernel();
    InsertionDatasetOptions opts;
    opts.corpus_size = 20;
    opts.insertions_per_base = 30;
    auto dataset = collectInsertionDataset(kernel, opts);
    ASSERT_FALSE(dataset.train.empty());

    PmmConfig config;
    config.dim = 16;
    config.token_dim = 8;
    config.gnn_layers = 1;
    InsertionModel model(config);

    const auto &example = dataset.train.front();
    const auto &base = dataset.bases[example.base_index];
    auto query = graph::buildQueryGraph(
        kernel, base, dataset.base_results[example.base_index],
        example.targets);
    auto encoded = graph::encodeGraph(kernel, query);
    std::vector<int32_t> calls;
    for (int32_t i = 0; i < encoded.num_nodes; ++i)
        if (encoded.node_kind[static_cast<size_t>(i)] ==
            static_cast<int32_t>(graph::NodeKind::Syscall))
            calls.push_back(i);

    auto [pos_logits, var_logits] = model.forward(encoded, calls);
    EXPECT_EQ(static_cast<size_t>(pos_logits.rows()), calls.size());
    EXPECT_EQ(var_logits.rows(), 1);
    EXPECT_EQ(var_logits.cols(), graph::EncodeVocab::kSyscallVocab);
}

TEST(Insertion, LearnsBetterThanRandom)
{
    const auto &kernel = testKernel();
    InsertionDatasetOptions opts;
    opts.corpus_size = 60;
    opts.insertions_per_base = 60;
    auto dataset = collectInsertionDataset(kernel, opts);
    if (dataset.train.size() < 30 || dataset.eval.size() < 10)
        GTEST_SKIP() << "not enough insertion data";

    PmmConfig config;
    config.dim = 16;
    config.token_dim = 8;
    config.gnn_layers = 1;
    InsertionModel model(config);
    InsertionTrainOptions train_opts;
    train_opts.epochs = 4;
    auto learned = trainInsertionModel(model, dataset, train_opts);
    auto random = evaluateRandomInsertion(dataset, dataset.eval, 1);

    // The variant head should clearly beat random guessing.
    EXPECT_GT(learned.variant_top5, random.variant_top5);
    EXPECT_GT(learned.variant_top1 + 1e-9, random.variant_top1);
}

TEST(PredictionCache, LookupInsertAndTallies)
{
    PredictionCache cache(8);
    std::vector<mut::ArgLocation> sites;
    EXPECT_FALSE(cache.lookup(1, &sites));
    EXPECT_EQ(cache.misses(), 1u);

    mut::ArgLocation site;
    site.call_index = 7;
    cache.insert(1, {site});
    EXPECT_TRUE(cache.lookup(1, &sites));
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_EQ(sites[0].call_index, 7u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.evictions(), 0u);
}

TEST(PredictionCache, WholesaleEvictionAtCapacity)
{
    PredictionCache cache(3);
    for (uint64_t key = 0; key < 3; ++key)
        cache.insert(key, {});
    EXPECT_EQ(cache.size(), 3u);
    // Re-inserting a resident key never evicts.
    cache.insert(1, {});
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.evictions(), 0u);
    // The 4th distinct key clears everything first.
    cache.insert(99, {});
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.evictions(), 3u);
    EXPECT_FALSE(cache.lookup(0, nullptr));
    EXPECT_TRUE(cache.lookup(99, nullptr));
}

TEST(PredictionCache, SharedAcrossConcurrentLocalizers)
{
    auto cache = std::make_shared<PredictionCache>(1024);
    constexpr size_t kThreads = 4;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, t] {
            for (uint64_t i = 0; i < 200; ++i) {
                const uint64_t key = i % 50;
                std::vector<mut::ArgLocation> sites;
                if (!cache->lookup(key, &sites)) {
                    mut::ArgLocation site;
                    site.call_index = static_cast<uint32_t>(t);
                    cache->insert(key, {site});
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(cache->size(), 50u);
    EXPECT_EQ(cache->hits() + cache->misses(), kThreads * 200u);
    EXPECT_GT(cache->hits(), cache->misses());
}

TEST(PmmLocalizer, EvictsWholesaleAtCapacity)
{
    const auto &kernel = testKernel();
    PmmConfig config;
    config.dim = 16;
    config.token_dim = 8;
    config.gnn_layers = 1;
    Pmm model(config);

    SnowplowOptions opts;  // every query goes through the cache
    opts.cache_capacity = 3;
    PmmLocalizer localizer(kernel, model, opts);

    Rng gen(17), rng(18);
    exec::Executor executor(kernel);
    auto programs = prog::generateCorpus(gen, kernel.table(), 5);
    ASSERT_GE(programs.size(), 4u);
    for (size_t i = 0; i < 3; ++i) {
        auto result = executor.run(programs[i]);
        localizer.localizeWithResult(programs[i], result, rng, 4);
    }
    EXPECT_EQ(localizer.cacheSize(), 3u);
    EXPECT_EQ(localizer.cache().evictions(), 0u);

    // A 4th distinct base clears the cache wholesale, then lands.
    auto result = executor.run(programs[3]);
    localizer.localizeWithResult(programs[3], result, rng, 4);
    EXPECT_EQ(localizer.cacheSize(), 1u);
    EXPECT_EQ(localizer.cache().evictions(), 3u);

    // Re-querying the same base is a pure cache hit.
    const uint64_t hits_before = localizer.cache().hits();
    localizer.localizeWithResult(programs[3], result, rng, 4);
    EXPECT_EQ(localizer.cache().hits(), hits_before + 1);
    EXPECT_EQ(localizer.cacheSize(), 1u);
}

}  // namespace
}  // namespace sp::core
