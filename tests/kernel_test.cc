// Tests for the simulated kernel: predicate evaluation, state/resource
// semantics, builder invariants, handler execution, the hand-written
// subsystems (including the deep SCSI/ATA bug path), the synthetic
// generator's determinism and version-evolution guarantees, and the
// per-decl slot layouts the builder stores.

#include <gtest/gtest.h>

#include <set>

#include "kernel/builder.h"
#include "kernel/kernel_gen.h"
#include "kernel/subsystems.h"
#include "prog/flatten.h"

namespace sp::kern {
namespace {

TEST(Cond, EvaluatesEveryKind)
{
    KernelState state(2);
    std::vector<uint64_t> slots = {5, 0x6, 42};

    Cond cond;
    cond.kind = CondKind::Always;
    EXPECT_TRUE(evalCond(cond, slots, state));

    cond.kind = CondKind::ArgEq;
    cond.slot = 0;
    cond.a = 5;
    EXPECT_TRUE(evalCond(cond, slots, state));
    cond.a = 6;
    EXPECT_FALSE(evalCond(cond, slots, state));

    cond.kind = CondKind::ArgNeq;
    EXPECT_TRUE(evalCond(cond, slots, state));

    cond.kind = CondKind::ArgLt;
    cond.slot = 2;
    cond.a = 43;
    EXPECT_TRUE(evalCond(cond, slots, state));
    cond.a = 42;
    EXPECT_FALSE(evalCond(cond, slots, state));

    cond.kind = CondKind::ArgGe;
    EXPECT_TRUE(evalCond(cond, slots, state));

    cond.kind = CondKind::ArgMaskAll;
    cond.slot = 1;
    cond.a = 0x2;
    EXPECT_TRUE(evalCond(cond, slots, state));
    cond.a = 0x9;
    EXPECT_FALSE(evalCond(cond, slots, state));

    cond.kind = CondKind::ArgMaskNone;
    cond.a = 0x9;
    EXPECT_TRUE(evalCond(cond, slots, state));
    cond.a = 0x2;
    EXPECT_FALSE(evalCond(cond, slots, state));

    cond.kind = CondKind::ArgInRange;
    cond.slot = 2;
    cond.a = 40;
    cond.b = 44;
    EXPECT_TRUE(evalCond(cond, slots, state));
    cond.b = 41;
    EXPECT_FALSE(evalCond(cond, slots, state));

    cond.kind = CondKind::StateFlagSet;
    cond.flag = 1;
    EXPECT_FALSE(evalCond(cond, slots, state));
    state.setFlag(1, true);
    EXPECT_TRUE(evalCond(cond, slots, state));

    cond.kind = CondKind::ResourceAlive;
    cond.slot = 0;
    cond.flag = 3;
    EXPECT_FALSE(evalCond(cond, slots, state));
    // Allocate resources until id 5 exists with kind 3.
    for (int i = 0; i < 5; ++i)
        state.allocResource(3);
    EXPECT_TRUE(evalCond(cond, slots, state));
}

TEST(Cond, DescribeMentionsSlot)
{
    Cond cond;
    cond.kind = CondKind::ArgEq;
    cond.slot = 7;
    cond.a = 0x85;
    auto text = cond.describe();
    EXPECT_NE(text.find("arg[7]"), std::string::npos);
    EXPECT_NE(text.find("0x85"), std::string::npos);
}

TEST(State, ResourceLifecycle)
{
    KernelState state(0);
    uint64_t id = state.allocResource(2);
    EXPECT_EQ(id, 1u);  // ids are 1-based
    EXPECT_TRUE(state.alive(id));
    EXPECT_TRUE(state.aliveOfKind(id, 2));
    EXPECT_FALSE(state.aliveOfKind(id, 3));
    EXPECT_EQ(state.kindOf(id), 2);
    EXPECT_EQ(state.liveCount(), 1u);
    state.release(id);
    EXPECT_FALSE(state.alive(id));
    EXPECT_EQ(state.liveCount(), 0u);
    // Invalid handles never alias resources.
    EXPECT_FALSE(state.alive(0));
    EXPECT_FALSE(state.alive(prog::kBadHandle));
}

TEST(State, SnapshotIsolation)
{
    KernelState state(1);
    state.allocResource(0);
    KernelState snap = state.snapshot();
    state.setFlag(0, true);
    state.allocResource(1);
    EXPECT_FALSE(snap.flag(0));
    EXPECT_EQ(snap.liveCount(), 1u);
    EXPECT_EQ(state.liveCount(), 2u);
}

TEST(Tokens, BranchTokensNameTheSlot)
{
    Cond cond;
    cond.kind = CondKind::ArgEq;
    cond.slot = 9;
    cond.a = 0x40;
    auto tokens = branchTokens(cond);
    bool found = false;
    for (uint16_t t : tokens)
        found |= (t == token::slotToken(9));
    EXPECT_TRUE(found);
    for (uint16_t t : tokens)
        EXPECT_LT(t, token::kVocabSize);
}

TEST(Tokens, BodyTokensDeterministic)
{
    EXPECT_EQ(bodyTokens(12), bodyTokens(12));
    EXPECT_NE(bodyTokens(12), bodyTokens(13));
}

TEST(Builder, MinimalKernelExecutes)
{
    KernelBuilder builder("test");
    prog::SyscallDecl decl;
    decl.name = "nop";
    decl.args.push_back(prog::intType("x", 32, 0, 10));
    builder.beginHandler(std::move(decl));
    const uint32_t a = builder.addBlock();
    const uint32_t b = builder.addBlock();
    const uint32_t c = builder.addBlock();
    Cond cond;
    cond.kind = CondKind::ArgEq;
    cond.slot = 0;
    cond.a = 3;
    builder.setBranch(a, cond, b, c);
    builder.setReturn(b);
    builder.setReturn(c);
    Kernel kernel = builder.finish();

    auto state = kernel.initialState();
    std::vector<uint32_t> trace;
    auto result = kernel.executeCall(0, {3}, state, trace);
    EXPECT_FALSE(result.crashed);
    EXPECT_EQ(trace, (std::vector<uint32_t>{a, b}));

    trace.clear();
    kernel.executeCall(0, {4}, state, trace);
    EXPECT_EQ(trace, (std::vector<uint32_t>{a, c}));
}

TEST(Builder, SuccessorsReflectTerminators)
{
    KernelBuilder builder("test");
    prog::SyscallDecl decl;
    decl.name = "nop";
    decl.args.push_back(prog::intType("x", 32, 0, 10));
    builder.beginHandler(std::move(decl));
    const uint32_t a = builder.addBlock();
    const uint32_t b = builder.addBlock();
    const uint32_t c = builder.addBlock();
    Cond cond;
    cond.kind = CondKind::ArgEq;
    cond.slot = 0;
    cond.a = 1;
    builder.setBranch(a, cond, b, c);
    builder.setFallthrough(b, c);
    builder.setReturn(c);
    Kernel kernel = builder.finish();

    auto succ_a = kernel.successors(a);
    EXPECT_EQ(succ_a.size(), 2u);
    EXPECT_EQ(kernel.successors(b), std::vector<uint32_t>{c});
    EXPECT_TRUE(kernel.successors(c).empty());
    EXPECT_EQ(kernel.staticEdges().size(), 3u);
}

class BaseKernelTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        KernelGenParams params;
        params.seed = 7;
        kernel_ = new Kernel(buildBaseKernel(params));
    }

    static void
    TearDownTestSuite()
    {
        delete kernel_;
        kernel_ = nullptr;
    }

    // Build slots for a decl from a path->value map applied over
    // defaults.
    static std::vector<uint64_t>
    slotsFor(const prog::SyscallDecl &decl,
             const std::vector<std::pair<uint16_t, uint64_t>> &overrides)
    {
        prog::Call call;
        call.decl = &decl;
        call.args = prog::defaultArgs(decl);
        prog::fixupLengths(call);
        auto slots = prog::flattenCall(call, {});
        for (auto [slot, value] : overrides)
            slots[slot] = value;
        return slots;
    }

    static Kernel *kernel_;
};

Kernel *BaseKernelTest::kernel_ = nullptr;

TEST_F(BaseKernelTest, HasSubsystemsAndBulk)
{
    EXPECT_NE(kernel_->table().find("open$file"), nullptr);
    EXPECT_NE(kernel_->table().find("ioctl$scsi"), nullptr);
    EXPECT_NE(kernel_->table().find("sendmsg$inet"), nullptr);
    EXPECT_NE(kernel_->table().find("timer_tick"), nullptr);
    EXPECT_GT(kernel_->table().decls.size(), 15u);
    EXPECT_GT(kernel_->blocks().size(), 300u);
    EXPECT_GT(kernel_->bugs().size(), 10u);
}

TEST_F(BaseKernelTest, ReadNeedsLiveFd)
{
    const auto *read_decl = kernel_->table().find("read");
    ASSERT_NE(read_decl, nullptr);
    auto state = kernel_->initialState();

    // Dead fd: the handler must take the EBADF path (short trace).
    std::vector<uint32_t> dead_trace;
    kernel_->executeCall(read_decl->id,
                         slotsFor(*read_decl, {}), state, dead_trace);

    // Open first, then read with the returned fd: longer path.
    const auto *open_decl = kernel_->table().find("open$file");
    std::vector<uint32_t> open_trace;
    auto open_result = kernel_->executeCall(
        open_decl->id, slotsFor(*open_decl, {}), state, open_trace);
    EXPECT_GT(open_result.ret, 0u);

    std::vector<uint32_t> live_trace;
    kernel_->executeCall(read_decl->id,
                         slotsFor(*read_decl, {{0, open_result.ret}}),
                         state, live_trace);
    EXPECT_NE(dead_trace, live_trace);
    EXPECT_GT(live_trace.size(), dead_trace.size());
}

TEST_F(BaseKernelTest, ScsiAtaBugNeedsExactArguments)
{
    const auto *open_decl = kernel_->table().find("open$scsi");
    const auto *ioctl_decl = kernel_->table().find("ioctl$scsi");
    ASSERT_NE(open_decl, nullptr);
    ASSERT_NE(ioctl_decl, nullptr);

    auto state = kernel_->initialState();
    std::vector<uint32_t> trace;
    auto open_result = kernel_->executeCall(
        open_decl->id, slotsFor(*open_decl, {}), state, trace);
    ASSERT_GT(open_result.ret, 0u);

    const auto slots_decl = prog::enumerateSlots(*ioctl_decl);
    // Layout: 0=fd 1=cmd 2=req_null 3=proto 4=ata_cmd 5=protocol
    // 6=data_len 7..8=data buffer 9=buf_len const... verify via count.
    ASSERT_GE(slots_decl.size(), 7u);

    auto exact = slotsFor(*ioctl_decl,
                          {{0, open_result.ret},
                           {1, kScsiIoctlSendCommand},
                           {2, 1},
                           {3, kScsiProtoAta16},
                           {4, kAtaCmdNop},
                           {5, kAtaProtPio},
                           {6, kAtaMaxDataLen + 1}});
    trace.clear();
    auto crash = kernel_->executeCall(ioctl_decl->id, exact, state, trace);
    ASSERT_TRUE(crash.crashed);
    EXPECT_EQ(kernel_->bugs()[crash.bug_index].kind,
              BugKind::OutOfBounds);

    // Perturbing any one of the guarding arguments avoids *this* bug
    // (the synthetic-bulk generator may plant other bugs on the
    // neighboring paths, which is fine).
    const uint32_t ata_bug_block = kernel_->bugs()[crash.bug_index].block;
    for (uint16_t slot : {uint16_t{1}, uint16_t{3}, uint16_t{4},
                          uint16_t{5}}) {
        auto near_miss = exact;
        near_miss[slot] ^= 0x1000;
        trace.clear();
        auto ok = kernel_->executeCall(ioctl_decl->id, near_miss, state,
                                       trace);
        if (ok.crashed) {
            EXPECT_NE(kernel_->bugs()[ok.bug_index].block,
                      ata_bug_block)
                << "slot " << slot;
        }
    }
    auto len_ok = exact;
    len_ok[6] = kAtaMaxDataLen;  // boundary: exactly the buffer size
    trace.clear();
    auto boundary =
        kernel_->executeCall(ioctl_decl->id, len_ok, state, trace);
    if (boundary.crashed) {
        EXPECT_NE(kernel_->bugs()[boundary.bug_index].block,
                  ata_bug_block);
    }
}

TEST_F(BaseKernelTest, ListenDependsOnBindStateFlag)
{
    const auto *socket_decl = kernel_->table().find("socket");
    const auto *bind_decl = kernel_->table().find("bind");
    const auto *listen_decl = kernel_->table().find("listen");

    auto state = kernel_->initialState();
    std::vector<uint32_t> trace;
    auto sock = kernel_->executeCall(
        socket_decl->id, slotsFor(*socket_decl, {}), state, trace);

    // listen before bind.
    std::vector<uint32_t> before;
    kernel_->executeCall(listen_decl->id,
                         slotsFor(*listen_decl, {{0, sock.ret}}), state,
                         before);
    // bind (addr ptr non-null by default), then listen again.
    trace.clear();
    kernel_->executeCall(bind_decl->id,
                         slotsFor(*bind_decl, {{0, sock.ret}}), state,
                         trace);
    std::vector<uint32_t> after;
    kernel_->executeCall(listen_decl->id,
                         slotsFor(*listen_decl, {{0, sock.ret}}), state,
                         after);
    EXPECT_NE(before, after);
}

TEST_F(BaseKernelTest, CloseReleasesFd)
{
    const auto *open_decl = kernel_->table().find("open$file");
    const auto *close_decl = kernel_->table().find("close$file");
    auto state = kernel_->initialState();
    std::vector<uint32_t> trace;
    auto fd = kernel_->executeCall(open_decl->id,
                                   slotsFor(*open_decl, {}), state, trace);
    EXPECT_TRUE(state.alive(fd.ret));
    trace.clear();
    kernel_->executeCall(close_decl->id,
                         slotsFor(*close_decl, {{0, fd.ret}}), state,
                         trace);
    EXPECT_FALSE(state.alive(fd.ret));
}

TEST(KernelGen, DeterministicForSeed)
{
    KernelGenParams params;
    params.seed = 99;
    Kernel a = generateKernel(params);
    Kernel b = generateKernel(params);
    ASSERT_EQ(a.blocks().size(), b.blocks().size());
    for (size_t i = 0; i < a.blocks().size(); ++i) {
        EXPECT_EQ(a.blocks()[i].tokens, b.blocks()[i].tokens);
        EXPECT_EQ(a.blocks()[i].taken, b.blocks()[i].taken);
    }
    ASSERT_EQ(a.table().decls.size(), b.table().decls.size());
    for (size_t i = 0; i < a.table().decls.size(); ++i)
        EXPECT_EQ(a.table().decls[i].name, b.table().decls[i].name);
}

TEST(KernelGen, DifferentSeedsDiffer)
{
    KernelGenParams pa, pb;
    pa.seed = 1;
    pb.seed = 2;
    Kernel a = generateKernel(pa);
    Kernel b = generateKernel(pb);
    EXPECT_NE(a.blocks().size(), b.blocks().size());
}

TEST(KernelGen, EvolutionPreservesBaseStructure)
{
    KernelGenParams base;
    base.seed = 42;
    KernelGenParams evolved = base;
    evolved.evolution = 2;
    evolved.version = "6.10";

    Kernel v68 = generateKernel(base);
    Kernel v610 = generateKernel(evolved);

    // The evolved kernel grows blocks and syscalls.
    EXPECT_GT(v610.blocks().size(), v68.blocks().size());
    EXPECT_EQ(v610.table().decls.size(),
              v68.table().decls.size() + 2);

    // Every base decl survives with the same name and slot layout.
    for (size_t i = 0; i < v68.table().decls.size(); ++i) {
        EXPECT_EQ(v68.table().decls[i].name,
                  v610.table().decls[i].name);
        EXPECT_EQ(prog::slotCount(v68.table().decls[i]),
                  prog::slotCount(v610.table().decls[i]));
    }
    EXPECT_EQ(v610.version(), "6.10");
}

TEST(KernelBuilder, EveryDeclCarriesItsOwnSlotLayout)
{
    // Each decl's layout is computed once when its kernel is built and
    // stored in the decl. Kernels built and dropped in one process reuse
    // addresses, so a layout keyed by decl address would go stale;
    // check two live, differently seeded kernels and a rebuilt one.
    auto expectFreshLayouts = [](const Kernel &kernel) {
        for (const auto &decl : kernel.table().decls) {
            EXPECT_EQ(decl.slots(), prog::enumerateSlots(decl))
                << decl.name;
            EXPECT_EQ(decl.slots().size(), prog::slotCount(decl))
                << decl.name;
        }
    };
    KernelGenParams params;
    params.seed = 11;
    const Kernel first = buildBaseKernel(params);
    params.seed = 12;
    const Kernel second = buildBaseKernel(params);
    expectFreshLayouts(first);
    expectFreshLayouts(second);
    for (uint64_t seed : {13u, 14u}) {
        params.seed = seed;
        expectFreshLayouts(buildBaseKernel(params));
    }
}

TEST(KernelGen, BugsArePlantedDeep)
{
    KernelGenParams params;
    params.seed = 5;
    Kernel kernel = generateKernel(params);
    ASSERT_GT(kernel.bugs().size(), 0u);
    int known = 0;
    for (const auto &bug : kernel.bugs()) {
        const auto &bb = kernel.block(bug.block);
        if (bug.known) {
            ++known;
            EXPECT_EQ(bb.depth, 1);
        } else {
            EXPECT_GE(bb.depth, 2);
        }
        EXPECT_EQ(kernel.bugAt(bug.block), &bug);
    }
    EXPECT_GT(known, 0);
}

TEST(KernelGen, HandlersAreWellFormedDags)
{
    // finish() validates acyclicity; also check every handler entry
    // reaches a Return within the block budget by executing defaults.
    KernelGenParams params;
    params.seed = 31;
    Kernel kernel = generateKernel(params);
    auto state = kernel.initialState();
    for (const auto &decl : kernel.table().decls) {
        prog::Call call;
        call.decl = &decl;
        call.args = prog::defaultArgs(decl);
        prog::fixupLengths(call);
        auto slots = prog::flattenCall(call, {});
        std::vector<uint32_t> trace;
        kernel.executeCall(decl.id, slots, state, trace);
        EXPECT_GT(trace.size(), 0u);
        EXPECT_LT(trace.size(), kernel.blocks().size());
    }
}

TEST(KernelGen, NoisyModeCanVisitInterruptBlocks)
{
    KernelGenParams params;
    params.seed = 8;
    Kernel kernel = generateKernel(params);
    const auto *decl = kernel.table().find("timer_tick");
    ASSERT_NE(decl, nullptr);

    // Run many noisy executions of some other syscall; interrupt blocks
    // belong to timer_tick's handler and should appear eventually.
    const auto &other = kernel.table().decls[1];
    prog::Call call;
    call.decl = &other;
    call.args = prog::defaultArgs(other);
    prog::fixupLengths(call);
    auto slots = prog::flattenCall(call, {});

    Rng noise(3);
    bool saw_interrupt = false;
    for (int i = 0; i < 500 && !saw_interrupt; ++i) {
        auto state = kernel.initialState();
        std::vector<uint32_t> trace;
        kernel.executeCall(other.id, slots, state, trace, &noise);
        for (uint32_t b : trace)
            saw_interrupt |= (kernel.block(b).handler == decl->id);
    }
    EXPECT_TRUE(saw_interrupt);
}

}  // namespace
}  // namespace sp::kern
