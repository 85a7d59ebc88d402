// Tests for the mutation-query graph (§3.2): node/edge composition,
// target marking, the one-hop alternative frontier, and the numeric
// encoding fed to the GNN.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "exec/executor.h"
#include "graph/encode.h"
#include "graph/query_graph.h"
#include "kernel/subsystems.h"
#include "prog/flatten.h"
#include "prog/gen.h"

namespace sp::graph {
namespace {

const kern::Kernel &
testKernel()
{
    static kern::Kernel kernel = [] {
        kern::KernelGenParams params;
        params.seed = 4;
        return kern::buildBaseKernel(params);
    }();
    return kernel;
}

struct Built
{
    prog::Prog program;
    exec::ExecResult result;
    QueryGraph graph;
};

Built
buildFor(uint64_t seed, const std::vector<uint32_t> &targets = {})
{
    const auto &kernel = testKernel();
    Rng rng(seed);
    Built built;
    built.program = prog::generateProg(rng, kernel.table());
    exec::Executor executor(kernel);
    built.result = executor.run(built.program);
    built.graph = buildQueryGraph(kernel, built.program, built.result,
                                  targets);
    return built;
}

TEST(QueryGraph, NodeCompositionMatchesProgramAndCoverage)
{
    auto built = buildFor(1);
    EXPECT_EQ(built.graph.countNodes(NodeKind::Syscall),
              built.program.calls.size());

    size_t expected_args = 0;
    for (const auto &call : built.program.calls)
        expected_args += prog::mutationPoints(call).size();
    EXPECT_EQ(built.graph.countNodes(NodeKind::Argument), expected_args);
    EXPECT_EQ(built.graph.argument_nodes.size(), expected_args);
    EXPECT_EQ(built.graph.argument_locations.size(), expected_args);

    EXPECT_EQ(built.graph.countNodes(NodeKind::Covered),
              built.result.coverage.blockCount());
    EXPECT_GT(built.graph.countNodes(NodeKind::Alternative), 0u);
}

TEST(QueryGraph, EdgeKindsAreAllPresent)
{
    auto built = buildFor(2);
    EXPECT_EQ(built.graph.countEdges(EdgeKind::CallOrder),
              built.program.calls.size() - 1);
    EXPECT_GT(built.graph.countEdges(EdgeKind::ArgOrder), 0u);
    EXPECT_GT(built.graph.countEdges(EdgeKind::ArgInOut), 0u);
    EXPECT_GT(built.graph.countEdges(EdgeKind::CoveredFlow), 0u);
    EXPECT_GT(built.graph.countEdges(EdgeKind::UncoveredFlow), 0u);
    // Two context-switch edges per executed call.
    EXPECT_EQ(built.graph.countEdges(EdgeKind::CtxSwitch),
              built.result.calls.size() * 2);
}

TEST(QueryGraph, AlternativeFrontierIsOneHopAndUncovered)
{
    auto built = buildFor(3);
    const auto &kernel = testKernel();
    auto frontier = alternativeFrontier(kernel, built.result.coverage);
    ASSERT_FALSE(frontier.empty());
    const auto &blocks = built.result.coverage.blocks();
    for (uint32_t block : frontier) {
        EXPECT_EQ(std::count(blocks.begin(), blocks.end(), block), 0);
        bool adjacent = false;
        for (uint32_t covered : blocks) {
            for (uint32_t succ : kernel.successors(covered))
                adjacent |= (succ == block);
        }
        EXPECT_TRUE(adjacent) << "block " << block;
    }
}

TEST(QueryGraph, TargetsAreMarkedOnlyOnFrontier)
{
    auto plain = buildFor(4);
    const auto &kernel = testKernel();
    auto frontier = alternativeFrontier(kernel, plain.result.coverage);
    ASSERT_GE(frontier.size(), 2u);

    std::vector<uint32_t> targets = {frontier[0],
                                     frontier[frontier.size() - 1]};
    auto built = buildFor(4, targets);
    size_t marked = 0;
    for (const auto &node : built.graph.nodes) {
        if (node.is_target) {
            ++marked;
            EXPECT_EQ(node.kind, NodeKind::Alternative);
            EXPECT_TRUE(node.block == targets[0] ||
                        node.block == targets[1]);
        }
    }
    EXPECT_EQ(marked, 2u);
}

TEST(QueryGraph, ArgumentLocationsDecodeIntoProgram)
{
    auto built = buildFor(5);
    for (const auto &loc : built.graph.argument_locations) {
        ASSERT_LT(loc.call_index, built.program.calls.size());
        const prog::Arg &arg = prog::argAtPath(
            built.program.calls[loc.call_index], loc.point.path);
        EXPECT_EQ(arg.type.get(), loc.point.type.get());
    }
}

TEST(QueryGraph, ResourceRefAddsProducerEdge)
{
    const auto &kernel = testKernel();
    prog::Prog program;
    prog::Call open_call;
    open_call.decl = kernel.table().find("open$file");
    open_call.args = prog::defaultArgs(*open_call.decl);
    prog::fixupLengths(open_call);
    program.calls.push_back(std::move(open_call));

    prog::Call read_call;
    read_call.decl = kernel.table().find("read");
    read_call.args = prog::defaultArgs(*read_call.decl);
    read_call.args[0]->result_ref = 0;
    prog::fixupLengths(read_call);
    program.calls.push_back(std::move(read_call));

    exec::Executor executor(kernel);
    auto result = executor.run(program);
    auto graph = buildQueryGraph(kernel, program, result, {});

    // There must be an ArgInOut edge from the open syscall node (node 0)
    // to the fd argument node of the read call.
    bool found = false;
    for (const auto &edge : graph.edges) {
        if (edge.kind != EdgeKind::ArgInOut)
            continue;
        if (graph.nodes[edge.src].kind == NodeKind::Syscall &&
            graph.nodes[edge.src].call_index == 0 &&
            graph.nodes[edge.dst].kind == NodeKind::Argument &&
            graph.nodes[edge.dst].call_index == 1) {
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Encode, ShapesAndVocabularyBounds)
{
    const auto &kernel = testKernel();
    auto built = buildFor(6);
    auto enc = encodeGraph(kernel, built.graph);

    const auto n = static_cast<size_t>(enc.num_nodes);
    EXPECT_EQ(n, built.graph.nodes.size());
    EXPECT_EQ(enc.node_kind.size(), n);
    EXPECT_EQ(enc.block_tokens.size(), n * EncodeVocab::kTokenWindow);
    for (int32_t kind : enc.node_kind) {
        EXPECT_GE(kind, 0);
        EXPECT_LT(kind, EncodeVocab::kNodeKinds);
    }
    for (int32_t token : enc.block_tokens) {
        EXPECT_GE(token, 0);
        EXPECT_LT(token, kern::token::kVocabSize);
    }
    EXPECT_EQ(enc.argument_nodes.size(),
              built.graph.argument_nodes.size());
}

TEST(Encode, ReverseRelationsMirrorForward)
{
    const auto &kernel = testKernel();
    auto built = buildFor(7);
    auto enc = encodeGraph(kernel, built.graph);
    for (size_t r = 0; r < kNumEdgeKinds; ++r) {
        const auto &fwd = enc.adj[r];
        const auto &rev = enc.adj[kNumEdgeKinds + r];
        ASSERT_EQ(fwd.src.size(), rev.src.size());
        for (size_t i = 0; i < fwd.src.size(); ++i) {
            EXPECT_EQ(fwd.src[i], rev.dst[i]);
            EXPECT_EQ(fwd.dst[i], rev.src[i]);
        }
    }
}

TEST(Encode, BranchBlockTokensNameTheTestedSlot)
{
    // The encoding must preserve the white-box signal: a covered branch
    // block's token window contains the slot token its cond reads.
    const auto &kernel = testKernel();
    auto built = buildFor(8);
    auto enc = encodeGraph(kernel, built.graph);
    size_t verified = 0;
    for (size_t i = 0; i < built.graph.nodes.size(); ++i) {
        const auto &node = built.graph.nodes[i];
        if (node.kind != NodeKind::Covered)
            continue;
        const auto &bb = kernel.block(node.block);
        if (bb.term != kern::Term::Branch ||
            bb.cond.kind == kern::CondKind::StateFlagSet ||
            bb.cond.kind == kern::CondKind::Always) {
            continue;
        }
        const uint16_t expected = kern::token::slotToken(bb.cond.slot);
        bool found = false;
        for (int64_t t = 0; t < EncodeVocab::kTokenWindow; ++t) {
            found |= (enc.block_tokens[i * EncodeVocab::kTokenWindow +
                                       static_cast<size_t>(t)] ==
                      expected);
        }
        EXPECT_TRUE(found) << "block " << node.block;
        ++verified;
    }
    EXPECT_GT(verified, 0u);
}

}  // namespace
}  // namespace sp::graph
