// Differential tests for the execution-backend seam: the fast backend
// (dirty-state restore, epoch-stamped dense coverage, arena scratch)
// must be bit-identical to the reference interpreter in deterministic
// AND noisy modes — same calls, traces, returns, coverage, and crash
// attribution. Also unit-covers the KernelState undo journal and the
// DenseCoverage accumulator against their simple counterparts.

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "exec/arena.h"
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

/** The crafted ATA-bug program from exec_test: crashes on call 1. */
prog::Prog
crashProgram(const kern::Kernel &kernel)
{
    const auto *open_scsi = kernel.table().find("open$scsi");
    const auto *ioctl = kernel.table().find("ioctl$scsi");
    EXPECT_NE(open_scsi, nullptr);
    EXPECT_NE(ioctl, nullptr);

    prog::Prog prog;
    prog.calls.push_back(makeCall(*open_scsi));
    prog.calls.push_back(makeCall(*ioctl));
    prog.calls.push_back(makeCall(*open_scsi));  // never reached

    auto &ioctl_call = prog.calls[1];
    ioctl_call.args[0]->result_ref = 0;
    ioctl_call.args[1]->scalar = kern::kScsiIoctlSendCommand;
    auto &req = *ioctl_call.args[2]->pointee;
    req.fields[0]->scalar = kern::kScsiProtoAta16;
    req.fields[1]->scalar = kern::kAtaCmdNop;
    req.fields[2]->scalar = kern::kAtaProtPio;
    req.fields[3]->scalar = kern::kAtaMaxDataLen + 1;
    return prog;
}

/** Full bit-identity check between two ExecResults. */
void
expectIdentical(const ExecResult &a, const ExecResult &b)
{
    ASSERT_EQ(a.calls.size(), b.calls.size());
    for (size_t i = 0; i < a.calls.size(); ++i) {
        EXPECT_EQ(a.calls[i].call_index, b.calls[i].call_index);
        EXPECT_EQ(a.calls[i].syscall_id, b.calls[i].syscall_id);
        EXPECT_EQ(a.calls[i].blocks, b.calls[i].blocks);
        EXPECT_EQ(a.calls[i].ret, b.calls[i].ret);
        EXPECT_EQ(a.calls[i].crashed, b.calls[i].crashed);
    }
    EXPECT_EQ(a.coverage.blocks(), b.coverage.blocks());
    EXPECT_EQ(a.coverage.edges(), b.coverage.edges());
    EXPECT_EQ(a.crashed, b.crashed);
    if (a.crashed && b.crashed) {
        EXPECT_EQ(a.bug_index, b.bug_index);
        EXPECT_EQ(a.crash_call, b.crash_call);
    }
}

TEST(KernelStateJournal, RollbackRestoresFlagsAndResources)
{
    kern::KernelState state(4);
    const uint64_t pre = state.allocResource(1);
    state.setFlag(2, true);
    state.beginJournal();
    EXPECT_TRUE(state.journaling());
    EXPECT_EQ(state.dirtyCount(), 0u);

    const uint64_t fresh = state.allocResource(2);
    state.setFlag(0, true);
    state.setFlag(2, false);
    state.setFlag(2, true);  // multiply-touched entry
    state.release(pre);
    EXPECT_GT(state.dirtyCount(), 0u);

    state.rollback();
    EXPECT_EQ(state.dirtyCount(), 0u);
    EXPECT_TRUE(state.alive(pre));
    EXPECT_FALSE(state.alive(fresh));
    EXPECT_FALSE(state.flag(0));
    EXPECT_TRUE(state.flag(2));
    EXPECT_EQ(state.liveCount(), 1u);
}

TEST(KernelStateJournal, StaysArmedAcrossRollbacks)
{
    kern::KernelState state(2);
    state.beginJournal();
    for (int round = 0; round < 3; ++round) {
        state.setFlag(1, true);
        const uint64_t id = state.allocResource(0);
        EXPECT_TRUE(state.alive(id));
        state.rollback();
        EXPECT_TRUE(state.journaling());
        EXPECT_FALSE(state.flag(1));
        EXPECT_EQ(state.liveCount(), 0u);
    }
}

TEST(KernelStateJournal, ReleaseOfJournaledAllocIsUndone)
{
    // Alloc-then-release inside one journaled window: truncation must
    // not resurrect the resource, and rollback must leave the restore
    // point intact.
    kern::KernelState state(1);
    state.beginJournal();
    const uint64_t id = state.allocResource(3);
    state.release(id);
    EXPECT_FALSE(state.alive(id));
    state.rollback();
    EXPECT_FALSE(state.alive(id));
    EXPECT_EQ(state.liveCount(), 0u);
}

TEST(DenseCoverage, TouchedListsAreFirstVisitOrder)
{
    // One synthetic 8-block topology; traces follow the static
    // successors with occasional stray transitions. The touched lists
    // must equal a set-deduplicated first-visit fold, element for
    // element.
    const size_t blocks = 8;
    std::vector<DenseCoverage::Successors> succ(blocks);
    for (uint32_t b = 0; b < blocks; ++b) {
        succ[b].taken = (b + 1) % blocks;
        succ[b].fallthrough = (b + 3) % blocks;
    }

    DenseCoverage dense;
    dense.bind(succ.data(), blocks);
    Rng rng(99);
    for (int exec = 0; exec < 50; ++exec) {
        dense.beginExec();
        std::set<uint32_t> seen_blocks;
        std::set<uint64_t> seen_edges;
        std::vector<uint32_t> expect_blocks;
        std::vector<uint64_t> expect_edges;
        for (int call = 0; call < 4; ++call) {
            std::vector<uint32_t> trace;
            uint32_t at = static_cast<uint32_t>(rng.next() % blocks);
            trace.push_back(at);
            for (int step = 0; step < 12; ++step) {
                const uint64_t roll = rng.next() % 10;
                if (roll < 4)
                    at = succ[at].taken;
                else if (roll < 8)
                    at = succ[at].fallthrough;
                else  // stray edge outside the static CFG
                    at = static_cast<uint32_t>(rng.next() % blocks);
                trace.push_back(at);
            }
            dense.addTrace(trace.data(), trace.size());
            for (size_t i = 0; i < trace.size(); ++i) {
                if (seen_blocks.insert(trace[i]).second)
                    expect_blocks.push_back(trace[i]);
                if (i + 1 == trace.size())
                    continue;
                const uint64_t key = edgeKey(trace[i], trace[i + 1]);
                if (seen_edges.insert(key).second)
                    expect_edges.push_back(key);
            }
        }
        EXPECT_EQ(dense.touchedBlocks(), expect_blocks);
        EXPECT_EQ(dense.touchedEdges(), expect_edges);
    }
}

TEST(ExecBackend, FastIsDefaultAndParses)
{
    Executor executor(testKernel());
    EXPECT_EQ(executor.backendKind(), BackendKind::Fast);

    BackendKind kind = BackendKind::Fast;
    EXPECT_TRUE(parseBackendKind("ref", &kind));
    EXPECT_EQ(kind, BackendKind::Reference);
    EXPECT_TRUE(parseBackendKind("reference", &kind));
    EXPECT_EQ(kind, BackendKind::Reference);
    EXPECT_TRUE(parseBackendKind("fast", &kind));
    EXPECT_EQ(kind, BackendKind::Fast);
    EXPECT_FALSE(parseBackendKind("jit", &kind));
    EXPECT_STREQ(backendKindName(BackendKind::Reference), "ref");
    EXPECT_STREQ(backendKindName(BackendKind::Fast), "fast");
}

TEST(ExecBackend, DeterministicParity)
{
    auto &kernel = testKernel();
    ExecOptions ref_opts;
    ref_opts.backend = BackendKind::Reference;
    Executor ref(kernel, ref_opts);
    Executor fast(kernel);  // Fast by default

    Rng rng(31);
    auto corpus = prog::generateCorpus(rng, kernel.table(), 60);
    corpus.push_back(crashProgram(kernel));
    size_t crashes = 0;
    for (const auto &prog : corpus) {
        auto a = ref.run(prog);
        auto b = fast.run(prog);
        expectIdentical(a, b);
        crashes += a.crashed ? 1 : 0;
    }
    // The crafted program guarantees the crash path was differentially
    // exercised (early exit + post-crash dirty restore).
    EXPECT_GE(crashes, 1u);
    EXPECT_EQ(ref.programsExecuted(), fast.programsExecuted());
    EXPECT_EQ(ref.callsExecuted(), fast.callsExecuted());
}

TEST(ExecBackend, NoisyParity)
{
    // Same noise seed on both executors: the backends must consume the
    // noise stream identically, so the whole sequence stays in
    // lockstep — including flaky-bug crashes and stray interrupt
    // blocks (the edges a dense static-CFG index alone can't dedup).
    auto &kernel = testKernel();
    ExecOptions ref_opts;
    ref_opts.deterministic = false;
    ref_opts.noise_seed = 7;
    ref_opts.backend = BackendKind::Reference;
    ExecOptions fast_opts = ref_opts;
    fast_opts.backend = BackendKind::Fast;
    Executor ref(kernel, ref_opts);
    Executor fast(kernel, fast_opts);

    Rng rng(32);
    auto corpus = prog::generateCorpus(rng, kernel.table(), 80);
    corpus.push_back(crashProgram(kernel));
    size_t crashes = 0;
    for (const auto &prog : corpus) {
        auto a = ref.run(prog);
        auto b = fast.run(prog);
        expectIdentical(a, b);
        crashes += a.crashed ? 1 : 0;
    }
    EXPECT_GE(crashes, 1u);
}

TEST(ExecBackend, CrashRestoreLeavesNoResidue)
{
    // After a crash aborts a program mid-call, the fast backend's
    // rollback must still restore the pristine snapshot: a subsequent
    // run of any program must match a fresh reference executor.
    auto &kernel = testKernel();
    Executor fast(kernel);
    const auto crash_prog = crashProgram(kernel);
    auto crashed = fast.run(crash_prog);
    ASSERT_TRUE(crashed.crashed);

    ExecOptions ref_opts;
    ref_opts.backend = BackendKind::Reference;
    Executor ref(kernel, ref_opts);
    Rng rng(33);
    auto corpus = prog::generateCorpus(rng, kernel.table(), 20);
    for (const auto &prog : corpus)
        expectIdentical(ref.run(prog), fast.run(prog));
}

TEST(ExecBackend, PoolSeedSplitParity)
{
    // A reference pool and a fast pool with the same base options must
    // agree on every worker's noise stream (splitSeed is backend-
    // independent) and every result.
    auto &kernel = testKernel();
    ExecOptions base;
    base.deterministic = false;
    base.noise_seed = 11;
    ExecOptions ref_base = base;
    ref_base.backend = BackendKind::Reference;
    const size_t workers = 3;
    ExecutorPool fast_pool(kernel, base, workers);
    ExecutorPool ref_pool(kernel, ref_base, workers);

    Rng rng(34);
    auto corpus = prog::generateCorpus(rng, kernel.table(), 12);
    for (size_t w = 0; w < workers; ++w) {
        for (const auto &prog : corpus) {
            expectIdentical(ref_pool.at(w).run(prog),
                            fast_pool.at(w).run(prog));
        }
    }
    EXPECT_EQ(ref_pool.totalProgramsExecuted(),
              fast_pool.totalProgramsExecuted());
}

TEST(ExecBackend, ConcurrentPoolWorkersStayIndependent)
{
    // Four threads, each driving its own pool executor (the campaign
    // contract), against a serial pool with identical options — runs
    // under TSan in CI, so this also proves the thread-local arena and
    // per-backend state carry no cross-thread races.
    auto &kernel = testKernel();
    ExecOptions base;
    base.deterministic = false;
    base.noise_seed = 17;
    const size_t workers = 4;
    ExecutorPool pool(kernel, base, workers);
    ExecutorPool serial(kernel, base, workers);

    Rng rng(35);
    const auto corpus = prog::generateCorpus(rng, kernel.table(), 16);
    std::vector<std::vector<ExecResult>> parallel_results(workers);
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            for (const auto &prog : corpus)
                parallel_results[w].push_back(pool.at(w).run(prog));
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (size_t w = 0; w < workers; ++w) {
        ASSERT_EQ(parallel_results[w].size(), corpus.size());
        for (size_t i = 0; i < corpus.size(); ++i)
            expectIdentical(serial.at(w).run(corpus[i]),
                            parallel_results[w][i]);
    }
}

TEST(ExecArena, RetainsCapacityAcrossRuns)
{
    auto &kernel = testKernel();
    Executor fast(kernel);
    Rng rng(36);
    auto corpus = prog::generateCorpus(rng, kernel.table(), 10);
    for (const auto &prog : corpus)
        fast.run(prog);
    auto &arena = ExecArena::local();
    const size_t warm_bytes = arena.bytes();
    const uint64_t before = arena.programs;
    EXPECT_GT(warm_bytes, 0u);
    for (const auto &prog : corpus)
        fast.run(prog);
    // Steady state: the same corpus allocates nothing new.
    EXPECT_EQ(arena.bytes(), warm_bytes);
    EXPECT_EQ(arena.programs, before + corpus.size());
}

}  // namespace
}  // namespace sp::exec
