// Tests for the executor: coverage accounting, resource resolution
// across calls, crash semantics, and the deterministic/noisy split.

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "kernel/subsystems.h"
#include "prog/flatten.h"
#include "prog/gen.h"

namespace sp::exec {
namespace {

kern::Kernel &
testKernel()
{
    static kern::Kernel kernel = [] {
        kern::KernelGenParams params;
        params.seed = 13;
        return kern::buildBaseKernel(params);
    }();
    return kernel;
}

prog::Call
makeCall(const prog::SyscallDecl &decl)
{
    prog::Call call;
    call.decl = &decl;
    call.args = prog::defaultArgs(decl);
    prog::fixupLengths(call);
    return call;
}

/**
 * The coverage of `traces` folded in call order: every block and every
 * consecutive pair as an edge, each kept at its first visit.
 */
CoverageSet
firstVisitCoverage(const std::vector<CallTrace> &traces)
{
    std::set<uint32_t> seen_blocks;
    std::set<uint64_t> seen_edges;
    std::vector<uint32_t> blocks;
    std::vector<uint64_t> edges;
    for (const CallTrace &trace : traces) {
        for (size_t i = 0; i < trace.blocks.size(); ++i) {
            if (seen_blocks.insert(trace.blocks[i]).second)
                blocks.push_back(trace.blocks[i]);
            if (i + 1 == trace.blocks.size())
                continue;
            const uint64_t key = edgeKey(trace.blocks[i], trace.blocks[i + 1]);
            if (seen_edges.insert(key).second)
                edges.push_back(key);
        }
    }
    return CoverageSet(std::move(blocks), std::move(edges));
}

TEST(CoverageSet, NewBlocksAndEdgesComeFromTheOtherSet)
{
    const CoverageSet a({1, 2}, {edgeKey(1, 2)});
    const CoverageSet b({3, 2, 5}, {edgeKey(3, 2), edgeKey(1, 2)});
    EXPECT_EQ(b.blockCount(), 3u);
    EXPECT_EQ(b.edgeCount(), 2u);
    // In `b`'s order, not sorted.
    EXPECT_EQ(a.newBlocks(b), (std::vector<uint32_t>{3, 5}));
    EXPECT_EQ(a.countNewEdges(b), 1u);
    EXPECT_TRUE(b.newBlocks(b).empty());
    EXPECT_EQ(b.countNewEdges(b), 0u);
}

TEST(Executor, CoverageIsTheFirstVisitOrderOfTheTraces)
{
    // Both backends emit each block and edge once, at its first visit
    // in call order; the query graph's node order relies on it.
    auto &kernel = testKernel();
    Rng rng(31);
    auto corpus = prog::generateCorpus(rng, kernel.table(), 40);
    for (const BackendKind kind : {BackendKind::Reference,
                                   BackendKind::Fast}) {
        ExecOptions opts;
        opts.backend = kind;
        Executor executor(kernel, opts);
        for (const auto &prog : corpus) {
            const ExecResult result = executor.run(prog);
            const CoverageSet expect = firstVisitCoverage(result.calls);
            EXPECT_EQ(result.coverage.blocks(), expect.blocks())
                << backendKindName(kind);
            EXPECT_EQ(result.coverage.edges(), expect.edges())
                << backendKindName(kind);
        }
    }
}

TEST(Executor, ResourceFlowsAcrossCalls)
{
    auto &kernel = testKernel();
    Executor executor(kernel);

    prog::Prog prog;
    prog.calls.push_back(makeCall(*kernel.table().find("open$file")));
    prog.calls.push_back(makeCall(*kernel.table().find("read")));
    prog.calls[1].args[0]->result_ref = 0;

    auto bound = executor.run(prog);
    ASSERT_EQ(bound.calls.size(), 2u);
    EXPECT_GT(bound.calls[0].ret, 0u);

    // The same program with an unbound fd takes the EBADF path.
    prog.calls[1].args[0]->result_ref = -1;
    auto unbound = executor.run(prog);
    EXPECT_NE(bound.calls[1].blocks, unbound.calls[1].blocks);
    EXPECT_GT(bound.calls[1].blocks.size(),
              unbound.calls[1].blocks.size());
}

TEST(Executor, CrashStopsTheProgram)
{
    auto &kernel = testKernel();
    Executor executor(kernel);

    const auto *open_scsi = kernel.table().find("open$scsi");
    const auto *ioctl = kernel.table().find("ioctl$scsi");
    ASSERT_NE(open_scsi, nullptr);
    ASSERT_NE(ioctl, nullptr);

    prog::Prog prog;
    prog.calls.push_back(makeCall(*open_scsi));
    prog.calls.push_back(makeCall(*ioctl));
    prog.calls.push_back(makeCall(*open_scsi));  // never reached

    // Craft the ATA bug arguments.
    auto &ioctl_call = prog.calls[1];
    ioctl_call.args[0]->result_ref = 0;
    ioctl_call.args[1]->scalar = kern::kScsiIoctlSendCommand;
    auto &req = *ioctl_call.args[2]->pointee;
    req.fields[0]->scalar = kern::kScsiProtoAta16;
    req.fields[1]->scalar = kern::kAtaCmdNop;
    req.fields[2]->scalar = kern::kAtaProtPio;
    req.fields[3]->scalar = kern::kAtaMaxDataLen + 1;

    auto result = executor.run(prog);
    ASSERT_TRUE(result.crashed);
    EXPECT_EQ(result.crash_call, 1u);
    EXPECT_EQ(result.calls.size(), 2u);
    // The crafted arguments walk deep into ioctl$scsi; the bug hit is
    // either the hand-planted ATA OOB or a generated bug the synthetic
    // bulk planted earlier on the same path — both live in this handler.
    const auto &bug = kernel.bugs()[result.bug_index];
    EXPECT_EQ(kernel.block(bug.block).handler, ioctl->id);
}

TEST(Executor, DeterministicModeIsReproducible)
{
    auto &kernel = testKernel();
    Executor executor(kernel);
    Rng rng(21);
    auto corpus = prog::generateCorpus(rng, kernel.table(), 30);
    for (const auto &prog : corpus) {
        auto a = executor.run(prog);
        auto b = executor.run(prog);
        ASSERT_EQ(a.calls.size(), b.calls.size());
        for (size_t i = 0; i < a.calls.size(); ++i)
            EXPECT_EQ(a.calls[i].blocks, b.calls[i].blocks);
        EXPECT_EQ(a.crashed, b.crashed);
    }
}

TEST(Executor, NoisyModeEventuallyDiverges)
{
    auto &kernel = testKernel();
    ExecOptions noisy;
    noisy.deterministic = false;
    noisy.noise_seed = 5;
    Executor executor(kernel, noisy);

    Rng rng(22);
    auto corpus = prog::generateCorpus(rng, kernel.table(), 20);
    bool diverged = false;
    for (const auto &prog : corpus) {
        auto a = executor.run(prog);
        auto b = executor.run(prog);
        if (a.coverage.blockCount() != b.coverage.blockCount() ||
            !a.coverage.newBlocks(b.coverage).empty()) {
            diverged = true;
            break;
        }
    }
    EXPECT_TRUE(diverged);
}

TEST(Executor, CountsExecutions)
{
    auto &kernel = testKernel();
    Executor executor(kernel);
    prog::Prog prog;
    prog.calls.push_back(makeCall(*kernel.table().find("open$file")));
    executor.run(prog);
    executor.run(prog);
    EXPECT_EQ(executor.programsExecuted(), 2u);
    EXPECT_EQ(executor.callsExecuted(), 2u);
}

TEST(Executor, CoverageGrowsWithBetterArguments)
{
    auto &kernel = testKernel();
    Executor executor(kernel);
    const auto *open_decl = kernel.table().find("open$file");

    prog::Prog base;
    base.calls.push_back(makeCall(*open_decl));
    base.calls[0].args[1]->scalar = 0;  // no flags
    auto base_result = executor.run(base);

    prog::Prog better;
    better.calls.push_back(makeCall(*open_decl));
    better.calls[0].args[1]->scalar =
        kern::kOCreat | kern::kOTrunc | kern::kOAppend;
    auto better_result = executor.run(better);

    EXPECT_FALSE(
        base_result.coverage.newBlocks(better_result.coverage).empty());
}

}  // namespace
}  // namespace sp::exec
