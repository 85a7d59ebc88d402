#include "core/pmm.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "kernel/block.h"
#include "nn/gemm.h"
#include "nn/rows.h"
#include "util/logging.h"
#include "util/rng.h"

namespace sp::core {

namespace {

constexpr size_t kNumRelations = graph::kNumEdgeKinds * 2;
constexpr float kAttentionSlope = 0.2f;  ///< leaky-relu slope of scores

/**
 * One relation's destination rows (nodes with an incoming edge), in
 * order of first appearance, and its layer output on them.
 */
struct RelationRows
{
    /** Per node: its compact row, or -1 when no edge enters it. */
    std::vector<int32_t> slot;
    /** Per compact row: 1 / in-degree. */
    std::vector<float> inv_degree;
    /** [compact rows, dim]: the relation's Linear on pooled messages. */
    std::vector<float> out;
};

/** Per-thread buffers of the tape-free forward pass (reused). */
struct ForwardScratch
{
    std::vector<float> h, sum, tokens, pooled, endpoints, scores,
        seg_max, seg_sum, head_in, head_out;
    std::array<RelationRows, kNumRelations> rel;
};

/** out[i, :] = bias for every row, then out += a · linear.weight. */
void
affineInto(const nn::Linear &linear, const float *a, int64_t rows,
           std::vector<float> &out)
{
    const int64_t m = linear.outFeatures();
    const float *bias = linear.bias().data().data();
    out.resize(static_cast<size_t>(rows * m));
    for (int64_t i = 0; i < rows; ++i)
        std::copy_n(bias, m, out.data() + i * m);
    nn::gemmAcc(a, linear.weight().data().data(), out.data(), rows,
                linear.inFeatures(), m);
}

/** h[i, :] += table[ids[i], :] (or = when `first`) over `rows` rows. */
void
addEmbedding(const nn::Embedding &emb, const std::vector<int32_t> &ids,
             size_t rows, bool first, float *h)
{
    SP_ASSERT(ids.size() == rows, "node feature count mismatch");
    const int64_t dim = emb.dim();
    const float *table = emb.table().data().data();
    for (size_t i = 0; i < rows; ++i) {
        SP_ASSERT(ids[i] >= 0 && ids[i] < emb.vocab(),
                  "embedding id out of range");
        const float *row = table + ids[i] * dim;
        float *dst = h + static_cast<int64_t>(i) * dim;
        if (first)
            std::copy_n(row, dim, dst);
        else
            nn::addRow(dst, row, dim);
    }
}

/**
 * Mean aggregation of one relation into s.pooled (destination rows,
 * zeroed by the caller), as segmentMeanRows: edge-order sums, each
 * scaled by 1 / in-degree.
 */
void
meanInto(const graph::AdjList &adj, const RelationRows &rel, int64_t dim,
         ForwardScratch &s)
{
    for (size_t e = 0; e < adj.src.size(); ++e) {
        nn::addRow(s.pooled.data() + rel.slot[adj.dst[e]] * dim,
                   s.h.data() + adj.src[e] * dim, dim);
    }
    for (size_t d = 0; d < rel.inv_degree.size(); ++d) {
        nn::scaleRow(s.pooled.data() + static_cast<int64_t>(d) * dim,
                     rel.inv_degree[d], dim);
    }
}

/**
 * GAT aggregation of one relation into s.pooled (destination rows,
 * zeroed by the caller): the taped chain of gatherRows, concatCols,
 * the attention Linear, leakyRelu, segmentSoftmax, rowScaleT and
 * scatterAddRows, element for element.
 */
void
attendInto(const nn::Linear &attention, const graph::AdjList &adj,
           const RelationRows &rel, int64_t dim, ForwardScratch &s)
{
    const auto edges = static_cast<int64_t>(adj.src.size());
    s.endpoints.resize(static_cast<size_t>(edges * 2 * dim));
    for (int64_t e = 0; e < edges; ++e) {
        float *row = s.endpoints.data() + e * 2 * dim;
        std::copy_n(s.h.data() + adj.src[e] * dim, dim, row);
        std::copy_n(s.h.data() + adj.dst[e] * dim, dim, row + dim);
    }
    affineInto(attention, s.endpoints.data(), edges, s.scores);
    for (float &v : s.scores)
        v = v > 0.0f ? v : kAttentionSlope * v;

    const size_t dests = rel.inv_degree.size();
    s.seg_max.assign(dests, -3.4e38f);
    for (int64_t e = 0; e < edges; ++e) {
        float &mx = s.seg_max[static_cast<size_t>(rel.slot[adj.dst[e]])];
        mx = std::max(mx, s.scores[e]);
    }
    s.seg_sum.assign(dests, 0.0f);
    for (int64_t e = 0; e < edges; ++e) {
        const auto seg = static_cast<size_t>(rel.slot[adj.dst[e]]);
        const float ex = std::exp(s.scores[e] - s.seg_max[seg]);
        s.scores[e] = ex;
        s.seg_sum[seg] += ex;
    }
    for (int64_t e = 0; e < edges; ++e)
        s.scores[e] /= s.seg_sum[static_cast<size_t>(rel.slot[adj.dst[e]])];

    for (int64_t e = 0; e < edges; ++e) {
        nn::addScaledRow(s.pooled.data() + rel.slot[adj.dst[e]] * dim,
                         s.h.data() + adj.src[e] * dim, s.scores[e], dim);
    }
}

}  // namespace

Pmm::Pmm(const PmmConfig &config)
    : config_(config)
{
    Rng rng(config.init_seed);
    const int64_t dim = config.dim;

    node_kind_emb_ = std::make_unique<nn::Embedding>(
        rng, graph::EncodeVocab::kNodeKinds, dim, "node_kind");
    syscall_emb_ = std::make_unique<nn::Embedding>(
        rng, graph::EncodeVocab::kSyscallVocab, dim, "syscall");
    arg_type_emb_ = std::make_unique<nn::Embedding>(
        rng, graph::EncodeVocab::kArgTypeVocab, dim, "arg_type");
    arg_slot_emb_ = std::make_unique<nn::Embedding>(
        rng, kern::token::kMaxSlots, dim, "arg_slot");
    target_emb_ =
        std::make_unique<nn::Embedding>(rng, 2, dim, "target");
    token_emb_ = std::make_unique<nn::Embedding>(
        rng, kern::token::kVocabSize, config.token_dim, "token");
    token_proj_ = std::make_unique<nn::Linear>(
        rng, config.token_dim * graph::EncodeVocab::kTokenWindow, dim,
        "token_proj");

    absorb("", *node_kind_emb_);
    absorb("", *syscall_emb_);
    absorb("", *arg_type_emb_);
    absorb("", *arg_slot_emb_);
    absorb("", *target_emb_);
    absorb("", *token_emb_);
    absorb("", *token_proj_);

    layers_.resize(static_cast<size_t>(config.gnn_layers));
    for (int l = 0; l < config.gnn_layers; ++l) {
        auto &layer = layers_[static_cast<size_t>(l)];
        layer.relation.reserve(kNumRelations);
        for (size_t r = 0; r < kNumRelations; ++r) {
            layer.relation.push_back(std::make_unique<nn::Linear>(
                rng, dim, dim,
                "gnn" + std::to_string(l) + ".rel" + std::to_string(r)));
            absorb("", *layer.relation.back());
            if (config.use_attention) {
                layer.attention.push_back(std::make_unique<nn::Linear>(
                    rng, 2 * dim, 1,
                    "gnn" + std::to_string(l) + ".attn" +
                        std::to_string(r)));
                absorb("", *layer.attention.back());
            }
        }
        layer.self = std::make_unique<nn::Linear>(
            rng, dim, dim, "gnn" + std::to_string(l) + ".self");
        absorb("", *layer.self);
    }

    head_ = std::make_unique<nn::Mlp>(
        rng, std::vector<int64_t>{dim, config.head_hidden, 1}, "head");
    absorb("", *head_);
}

nn::Tensor
Pmm::embedNodes(const graph::EncodedGraph &graph) const
{
    using nn::Tensor;
    Tensor h = node_kind_emb_->forward(graph.node_kind);
    h = nn::add(h, syscall_emb_->forward(graph.syscall_tok));
    h = nn::add(h, arg_type_emb_->forward(graph.arg_type_tok));
    h = nn::add(h, arg_slot_emb_->forward(graph.arg_slot_tok));
    h = nn::add(h, target_emb_->forward(graph.target_flag));

    // Position-aware token encoder over the block-token window.
    const int64_t window = graph::EncodeVocab::kTokenWindow;
    const auto n = static_cast<int64_t>(graph.node_kind.size());
    std::vector<Tensor> per_position;
    std::vector<int32_t> column(static_cast<size_t>(n));
    for (int64_t p = 0; p < window; ++p) {
        for (int64_t i = 0; i < n; ++i) {
            column[static_cast<size_t>(i)] =
                graph.block_tokens[static_cast<size_t>(i * window + p)];
        }
        per_position.push_back(token_emb_->forward(column));
    }
    Tensor tokens = nn::concatCols(per_position);
    h = nn::add(h, token_proj_->forward(tokens));
    return nn::layerNormRows(h);
}

nn::Tensor
Pmm::nodeStates(const graph::EncodedGraph &graph, Rng *dropout_rng,
                bool training) const
{
    using nn::Tensor;
    SP_ASSERT(graph.num_nodes > 0, "empty query graph");
    Tensor h = embedNodes(graph);
    const auto n = static_cast<int64_t>(graph.num_nodes);

    for (const auto &layer : layers_) {
        Tensor sum = layer.self->forward(h);
        // In-degree per relation for mean aggregation.
        for (size_t r = 0; r < kNumRelations; ++r) {
            const auto &adj = graph.adj[r];
            if (adj.src.empty())
                continue;
            Tensor pooled;
            if (config_.use_attention) {
                // GAT-style: score each edge from its endpoint states,
                // softmax over the edges entering each destination.
                Tensor messages = nn::gatherRows(h, adj.src);
                Tensor endpoints = nn::concatCols(
                    {messages, nn::gatherRows(h, adj.dst)});
                Tensor scores = nn::leakyRelu(
                    nn::flatten(layer.attention[r]->forward(endpoints)),
                    kAttentionSlope);
                Tensor alpha =
                    nn::segmentSoftmax(scores, adj.dst,
                                       static_cast<int32_t>(n));
                pooled = nn::scatterAddRows(
                    nn::rowScaleT(messages, alpha), adj.dst, n);
            } else {
                // GCN-style mean aggregation (the paper's choice),
                // fused: no per-edge message matrix is materialized,
                // and rows without incoming edges stay exactly zero so
                // the relation GEMM skips them.
                pooled = nn::segmentMeanRows(h, adj.src, adj.dst, n);
            }
            sum = nn::add(sum, layer.relation[r]->forward(pooled));
        }
        Tensor activated = nn::relu(sum);
        if (training && dropout_rng != nullptr) {
            activated = nn::dropout(activated, config_.dropout,
                                    *dropout_rng, true);
        }
        // Residual + normalization.
        h = nn::layerNormRows(nn::add(h, activated));
    }
    return h;
}

nn::Tensor
Pmm::forward(const graph::EncodedGraph &graph, Rng *dropout_rng,
             bool training) const
{
    using nn::Tensor;
    Tensor h = nodeStates(graph, dropout_rng, training);
    SP_ASSERT(!graph.argument_nodes.empty(),
              "query graph has no argument nodes");
    Tensor args = nn::gatherRows(h, graph.argument_nodes);
    Tensor logits = head_->forward(args);  // [n_args, 1]
    return nn::flatten(logits);
}

std::vector<float>
Pmm::predict(const graph::EncodedGraph &graph) const
{
    if (graph.argument_nodes.empty())
        return {};
    SP_ASSERT(graph.num_nodes > 0, "empty query graph");
    thread_local ForwardScratch s;
    const auto n = static_cast<int64_t>(graph.num_nodes);
    const auto rows = static_cast<size_t>(n);
    const int64_t dim = config_.dim;

    // Embedding sums in the taped order, then the token projection as
    // one GEMM over the per-node concatenated token embeddings.
    s.h.resize(rows * static_cast<size_t>(dim));
    float *h = s.h.data();
    addEmbedding(*node_kind_emb_, graph.node_kind, rows, true, h);
    addEmbedding(*syscall_emb_, graph.syscall_tok, rows, false, h);
    addEmbedding(*arg_type_emb_, graph.arg_type_tok, rows, false, h);
    addEmbedding(*arg_slot_emb_, graph.arg_slot_tok, rows, false, h);
    addEmbedding(*target_emb_, graph.target_flag, rows, false, h);
    const int64_t window = graph::EncodeVocab::kTokenWindow;
    const int64_t token_dim = config_.token_dim;
    SP_ASSERT(graph.block_tokens.size() == rows * window,
              "block token count mismatch");
    const float *token_table = token_emb_->table().data().data();
    s.tokens.resize(rows * static_cast<size_t>(window * token_dim));
    for (size_t t = 0; t < graph.block_tokens.size(); ++t) {
        const int32_t tok = graph.block_tokens[t];
        SP_ASSERT(tok >= 0 && tok < token_emb_->vocab(),
                  "block token out of range");
        std::copy_n(token_table + tok * token_dim, token_dim,
                    s.tokens.data() + static_cast<int64_t>(t) * token_dim);
    }
    affineInto(*token_proj_, s.tokens.data(), n, s.sum);
    for (int64_t i = 0; i < n; ++i) {
        float *row = h + i * dim;
        nn::addRow(row, s.sum.data() + i * dim, dim);
        nn::layerNormRow(row, row, dim);
    }

    // Destination rows per relation: the same in every layer.
    for (size_t r = 0; r < kNumRelations; ++r) {
        const auto &adj = graph.adj[r];
        RelationRows &rel = s.rel[r];
        SP_ASSERT(adj.src.size() == adj.dst.size(), "relation edge lists");
        rel.slot.assign(rows, -1);
        rel.inv_degree.clear();
        for (size_t e = 0; e < adj.dst.size(); ++e) {
            const int32_t d = adj.dst[e];
            SP_ASSERT(d >= 0 && d < n && adj.src[e] >= 0 && adj.src[e] < n,
                      "relation edge out of range");
            int32_t &slot = rel.slot[static_cast<size_t>(d)];
            if (slot < 0) {
                slot = static_cast<int32_t>(rel.inv_degree.size());
                rel.inv_degree.push_back(0.0f);
            }
            rel.inv_degree[static_cast<size_t>(slot)] += 1.0f;
        }
        for (float &d : rel.inv_degree)
            d = 1.0f / d;
    }

    for (const auto &layer : layers_) {
        // Each relation's Linear on its pooled destination rows.
        for (size_t r = 0; r < kNumRelations; ++r) {
            const auto &adj = graph.adj[r];
            if (adj.src.empty())
                continue;
            RelationRows &rel = s.rel[r];
            s.pooled.assign(rel.inv_degree.size() * static_cast<size_t>(dim),
                            0.0f);
            if (config_.use_attention)
                attendInto(*layer.attention[r], adj, rel, dim, s);
            else
                meanInto(adj, rel, dim, s);
            affineInto(*layer.relation[r], s.pooled.data(),
                       static_cast<int64_t>(rel.inv_degree.size()),
                       rel.out);
        }
        // Row by row: the self Linear plus each relation's output in
        // relation order (the bias alone off its destinations, which
        // is what the taped GEMM leaves on an all-zero pooled row),
        // then the residual over the rectified sum and layer norm.
        affineInto(*layer.self, h, n, s.sum);
        for (int64_t i = 0; i < n; ++i) {
            std::array<const float *, kNumRelations> terms;
            size_t count = 0;
            for (size_t r = 0; r < kNumRelations; ++r) {
                if (graph.adj[r].src.empty())
                    continue;
                const RelationRows &rel = s.rel[r];
                const int32_t slot = rel.slot[static_cast<size_t>(i)];
                terms[count++] =
                    slot < 0 ? layer.relation[r]->bias().data().data()
                             : rel.out.data() + slot * dim;
            }
            float *sum = s.sum.data() + i * dim;
            nn::addRows(sum, terms.data(), count, dim);
            float *row = h + i * dim;
            nn::addReluRow(row, sum, dim);
            nn::layerNormRow(row, row, dim);
        }
    }

    // Head MLP on the argument rows, then the sigmoid.
    const auto args = static_cast<int64_t>(graph.argument_nodes.size());
    s.head_in.resize(static_cast<size_t>(args * dim));
    for (int64_t a = 0; a < args; ++a) {
        const int32_t node = graph.argument_nodes[static_cast<size_t>(a)];
        SP_ASSERT(node >= 0 && node < n, "argument node out of range");
        std::copy_n(h + node * dim, dim, s.head_in.data() + a * dim);
    }
    const auto &head = head_->layers();
    for (size_t l = 0; l < head.size(); ++l) {
        affineInto(head[l], s.head_in.data(), args, s.head_out);
        if (l + 1 < head.size()) {
            for (float &v : s.head_out)
                v = v > 0.0f ? v : 0.0f;
        }
        std::swap(s.head_in, s.head_out);
    }
    std::vector<float> probs(s.head_in.begin(), s.head_in.end());
    for (float &p : probs)
        p = nn::sigmoidOf(p);
    return probs;
}

std::vector<std::vector<float>>
Pmm::predictBatch(
    const std::vector<const graph::EncodedGraph *> &graphs) const
{
    std::vector<std::vector<float>> results(graphs.size());
    // Graphs without prediction targets contribute nothing; keep only
    // the ones the forward pass needs (their result stays empty).
    std::vector<const graph::EncodedGraph *> active;
    std::vector<size_t> active_index;
    for (size_t i = 0; i < graphs.size(); ++i) {
        SP_ASSERT(graphs[i] != nullptr, "predictBatch: null graph");
        if (graphs[i]->num_nodes > 0 &&
            !graphs[i]->argument_nodes.empty()) {
            active.push_back(graphs[i]);
            active_index.push_back(i);
        }
    }
    if (active.empty())
        return results;
    if (active.size() == 1) {
        results[active_index[0]] = predict(*active[0]);
        return results;
    }

    const graph::GraphBatch batch = graph::concatGraphs(active);
    const std::vector<float> flat = predict(batch.merged);
    size_t offset = 0;
    for (size_t b = 0; b < active.size(); ++b) {
        const size_t count = batch.argument_counts[b];
        results[active_index[b]].assign(
            flat.begin() + static_cast<int64_t>(offset),
            flat.begin() + static_cast<int64_t>(offset + count));
        offset += count;
    }
    SP_ASSERT(offset == flat.size(),
              "predictBatch: merged output size mismatch");
    return results;
}

}  // namespace sp::core
