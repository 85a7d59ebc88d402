#include "graph/query_graph.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/logging.h"

namespace sp::graph {

size_t
QueryGraph::countNodes(NodeKind kind) const
{
    size_t count = 0;
    for (const auto &node : nodes)
        count += (node.kind == kind);
    return count;
}

size_t
QueryGraph::countEdges(EdgeKind kind) const
{
    size_t count = 0;
    for (const auto &edge : edges)
        count += (edge.kind == kind);
    return count;
}

std::vector<uint32_t>
alternativeFrontier(const kern::Kernel &kernel,
                    const exec::CoverageSet &cov)
{
    const std::vector<uint32_t> covered = cov.sortedBlocks();
    std::vector<uint32_t> frontier;
    for (uint32_t block : cov.blocks()) {
        for (uint32_t succ : kernel.successors(block)) {
            if (!std::binary_search(covered.begin(), covered.end(), succ))
                frontier.push_back(succ);
        }
    }
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());
    return frontier;
}

QueryGraph
buildQueryGraph(const kern::Kernel &kernel, const prog::Prog &prog,
                const exec::ExecResult &result,
                const std::vector<uint32_t> &targets)
{
    QueryGraph graph;
    const std::unordered_set<uint32_t> target_set(targets.begin(),
                                                  targets.end());

    // --- Program side: syscall and argument nodes -----------------------
    std::vector<uint32_t> syscall_node_of_call(prog.calls.size(), 0);
    // Per call: flattened slot index -> argument node index (for the
    // SlotRead data-dependence edges).
    std::vector<std::unordered_map<uint16_t, uint32_t>> arg_node_of_slot(
        prog.calls.size());
    for (size_t i = 0; i < prog.calls.size(); ++i) {
        Node node;
        node.kind = NodeKind::Syscall;
        node.syscall_id = prog.calls[i].decl->id;
        node.call_index = static_cast<uint16_t>(i);
        syscall_node_of_call[i] =
            static_cast<uint32_t>(graph.nodes.size());
        graph.nodes.push_back(node);

        if (i > 0) {
            graph.edges.push_back(Edge{syscall_node_of_call[i - 1],
                                       syscall_node_of_call[i],
                                       EdgeKind::CallOrder});
        }

        // Slot ownership: every slot whose SlotDesc path equals a
        // mutation point's path belongs to that point (covers the two
        // buffer slots and pointer-nullness slots).
        const auto &slot_descs = prog.calls[i].decl->slots();

        uint32_t prev_arg_node = kern::kNoBlock;
        for (auto &point : prog::mutationPoints(prog.calls[i])) {
            Node arg_node;
            arg_node.kind = NodeKind::Argument;
            arg_node.call_index = static_cast<uint16_t>(i);
            arg_node.arg_slot =
                static_cast<uint16_t>(point.first_slot);
            arg_node.arg_type_kind =
                static_cast<uint8_t>(point.type->kind);
            const auto arg_index =
                static_cast<uint32_t>(graph.nodes.size());
            graph.nodes.push_back(arg_node);
            graph.argument_nodes.push_back(arg_index);
            for (const auto &desc : slot_descs) {
                if (desc.path == point.path) {
                    arg_node_of_slot[i].emplace(
                        static_cast<uint16_t>(desc.index), arg_index);
                }
            }
            mut::ArgLocation loc;
            loc.call_index = i;
            loc.point = point;
            graph.argument_locations.push_back(std::move(loc));

            // Data flow: argument feeds its call.
            graph.edges.push_back(Edge{arg_index,
                                       syscall_node_of_call[i],
                                       EdgeKind::ArgInOut});
            // Resource data flow: producing call feeds this argument.
            const prog::Arg &value =
                prog::argAtPath(prog.calls[i], point.path);
            if (value.type->kind == prog::TypeKind::Resource &&
                value.result_ref >= 0 &&
                static_cast<size_t>(value.result_ref) < i) {
                graph.edges.push_back(
                    Edge{syscall_node_of_call[static_cast<size_t>(
                             value.result_ref)],
                         arg_index, EdgeKind::ArgInOut});
            }
            // Argument ordering within the call.
            if (prev_arg_node != kern::kNoBlock) {
                graph.edges.push_back(Edge{prev_arg_node, arg_index,
                                           EdgeKind::ArgOrder});
            }
            prev_arg_node = arg_index;
        }
    }

    // --- Kernel side: covered blocks and alternatives -------------------
    std::unordered_map<uint32_t, uint32_t> node_of_block;
    auto blockNode = [&](uint32_t block, NodeKind kind) -> uint32_t {
        auto it = node_of_block.find(block);
        if (it != node_of_block.end())
            return it->second;
        Node node;
        node.kind = kind;
        node.block = block;
        node.is_target =
            kind == NodeKind::Alternative && target_set.count(block) != 0;
        const auto index = static_cast<uint32_t>(graph.nodes.size());
        graph.nodes.push_back(node);
        node_of_block.emplace(block, index);
        return index;
    };

    for (uint32_t block : result.coverage.blocks())
        blockNode(block, NodeKind::Covered);

    // Covered control-flow edges (executed directional pairs that are
    // also static CFG edges; interrupt-noise pairs are excluded).
    for (uint64_t key : result.coverage.edges()) {
        const auto from = static_cast<uint32_t>(key >> 32);
        const auto to = static_cast<uint32_t>(key & 0xffffffffu);
        const auto succ = kernel.successors(from);
        if (std::find(succ.begin(), succ.end(), to) == succ.end())
            continue;
        graph.edges.push_back(Edge{blockNode(from, NodeKind::Covered),
                                   blockNode(to, NodeKind::Covered),
                                   EdgeKind::CoveredFlow});
    }

    // Alternatives: one-hop not-taken successors. Every covered block
    // already has its Covered node and this loop adds only Alternative
    // ones, so the block-node map answers "is it covered?".
    for (uint32_t covered : result.coverage.blocks()) {
        for (uint32_t succ : kernel.successors(covered)) {
            const auto it = node_of_block.find(succ);
            if (it != node_of_block.end() &&
                graph.nodes[it->second].kind == NodeKind::Covered) {
                continue;
            }
            graph.edges.push_back(
                Edge{blockNode(covered, NodeKind::Covered),
                     blockNode(succ, NodeKind::Alternative),
                     EdgeKind::UncoveredFlow});
        }
    }

    // --- Context-switch and slot-read edges ------------------------------
    std::unordered_set<uint64_t> slot_read_seen;
    for (const auto &call_trace : result.calls) {
        if (call_trace.blocks.empty())
            continue;

        // SlotRead: executed branch blocks -> the argument they test.
        for (uint32_t block : call_trace.blocks) {
            const auto &bb = kernel.block(block);
            if (bb.term != kern::Term::Branch ||
                bb.handler != call_trace.syscall_id) {
                continue;  // interrupt-noise blocks are skipped
            }
            switch (bb.cond.kind) {
              case kern::CondKind::Always:
              case kern::CondKind::StateFlagSet:
                continue;
              default:
                break;
            }
            const auto &slot_map =
                arg_node_of_slot[call_trace.call_index];
            auto slot_it = slot_map.find(bb.cond.slot);
            if (slot_it == slot_map.end())
                continue;  // const/len slots have no mutable owner
            const uint64_t key =
                (static_cast<uint64_t>(block) << 32) | slot_it->second;
            if (!slot_read_seen.insert(key).second)
                continue;
            graph.edges.push_back(
                Edge{blockNode(block, NodeKind::Covered),
                     slot_it->second, EdgeKind::SlotRead});
        }

        const uint32_t syscall_node =
            syscall_node_of_call[call_trace.call_index];
        const uint32_t entry =
            kernel.handler(call_trace.syscall_id).entry;
        graph.edges.push_back(Edge{syscall_node,
                                   blockNode(entry, NodeKind::Covered),
                                   EdgeKind::CtxSwitch});
        const uint32_t exit_block = call_trace.blocks.back();
        graph.edges.push_back(
            Edge{blockNode(exit_block, NodeKind::Covered), syscall_node,
                 EdgeKind::CtxSwitch});
    }

    return graph;
}

}  // namespace sp::graph
