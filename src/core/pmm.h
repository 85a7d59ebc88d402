/**
 * @file
 * The Program Mutation Model (PMM, paper §3.3).
 *
 * PMM consumes an encoded argument-mutation query graph and emits one
 * MUTATE logit per argument node. The architecture has the paper's
 * three learnable components:
 *
 *  - θ_Emb: embedding tables for node kinds, syscall variants, argument
 *    types, argument slots, the target flag — and implicitly the edge
 *    types, which get per-relation message transforms;
 *  - θ_TRANSFORMER's stand-in: a position-aware token encoder over each
 *    kernel block's synthetic assembly window (token embeddings
 *    concatenated by position, projected to the model width). The
 *    paper's BERT-pretrained Transformer reads x86 `cmp` operands; our
 *    blocks' tokens carry the same signal (which argument slot a branch
 *    compares) in a short fixed window, so a projection encoder
 *    suffices at this scale;
 *  - θ_GNN: L rounds of typed message passing (one linear transform per
 *    edge relation and direction, mean-aggregated), with residual
 *    connections and layer normalization, followed by an MLP head on
 *    argument nodes.
 */
#ifndef SP_CORE_PMM_H
#define SP_CORE_PMM_H

#include <memory>

#include "graph/encode.h"
#include "nn/module.h"

namespace sp::core {

/** Model hyperparameters. */
struct PmmConfig
{
    int64_t dim = 40;        ///< node embedding width
    int64_t token_dim = 12;  ///< per-token embedding width
    int gnn_layers = 3;      ///< message-passing rounds
    int64_t head_hidden = 32;
    float dropout = 0.1f;
    /**
     * Use GAT-style edge attention instead of mean aggregation in the
     * message-passing layers (an ablatable architecture variant; the
     * default mirrors the paper's GCN).
     */
    bool use_attention = false;
    uint64_t init_seed = 0x9a11;
};

/** The Program Mutation Model. */
class Pmm : public nn::Module
{
  public:
    explicit Pmm(const PmmConfig &config = {});

    /**
     * Forward pass: logits over the graph's argument nodes (rank-1
     * tensor of length |argument_nodes|). Dropout is active only when
     * `training` with a non-null `dropout_rng`.
     */
    nn::Tensor forward(const graph::EncodedGraph &graph,
                       Rng *dropout_rng = nullptr,
                       bool training = false) const;

    /**
     * Sigmoid probabilities per argument node: the forward pass in one
     * tape-free pass over thread-local buffers, bit-identical to
     * sigmoid(forward(graph)). Each relation's pooled messages and
     * Linear run on its destination rows only; every other row gets
     * the relation's bias, which is what the taped GEMM leaves on an
     * all-zero pooled row.
     */
    std::vector<float> predict(const graph::EncodedGraph &graph) const;

    /**
     * Batched predict: packs the graphs into one block-diagonal batch
     * (graph::concatGraphs), runs predict() on it so the dense layers
     * run as single GEMMs over the stacked node-feature matrices, then
     * splits the merged output back per graph. Message passing stays
     * exact — edges never cross graph boundaries — so each result
     * matches the unbatched predict() on the same graph bit for bit. Graphs with no argument nodes (or
     * no nodes) yield empty vectors, mirroring predict().
     */
    std::vector<std::vector<float>>
    predictBatch(const std::vector<const graph::EncodedGraph *> &graphs)
        const;

    /**
     * Hidden states of every node after message passing ([num_nodes,
     * dim]). Extension heads (e.g. call-insertion localization, §6 of
     * the paper) build on these shared representations.
     */
    nn::Tensor nodeStates(const graph::EncodedGraph &graph,
                          Rng *dropout_rng = nullptr,
                          bool training = false) const;

    const PmmConfig &config() const { return config_; }

  private:
    /** Initial node features from the embedding tables. */
    nn::Tensor embedNodes(const graph::EncodedGraph &graph) const;

    PmmConfig config_;
    std::unique_ptr<nn::Embedding> node_kind_emb_;
    std::unique_ptr<nn::Embedding> syscall_emb_;
    std::unique_ptr<nn::Embedding> arg_type_emb_;
    std::unique_ptr<nn::Embedding> arg_slot_emb_;
    std::unique_ptr<nn::Embedding> target_emb_;
    std::unique_ptr<nn::Embedding> token_emb_;
    std::unique_ptr<nn::Linear> token_proj_;

    struct GnnLayer
    {
        std::vector<std::unique_ptr<nn::Linear>> relation;  ///< 2*kinds
        /** Per-relation attention scorers (only with use_attention). */
        std::vector<std::unique_ptr<nn::Linear>> attention;
        std::unique_ptr<nn::Linear> self;
    };
    std::vector<GnnLayer> layers_;
    std::unique_ptr<nn::Mlp> head_;
};

}  // namespace sp::core

#endif  // SP_CORE_PMM_H
