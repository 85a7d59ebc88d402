#include "exec/backend.h"

#include <chrono>

#include "exec/arena.h"
#include "obs/metrics.h"
#include "prog/flatten.h"
#include "util/logging.h"

namespace sp::exec {

const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Reference:
        return "ref";
      case BackendKind::Fast:
        return "fast";
    }
    SP_PANIC("unreachable backend kind");
}

bool
parseBackendKind(const std::string &name, BackendKind *out)
{
    if (name == "ref" || name == "reference") {
        *out = BackendKind::Reference;
        return true;
    }
    if (name == "fast") {
        *out = BackendKind::Fast;
        return true;
    }
    return false;
}

namespace {

/**
 * The original interpreter: fresh KernelState per program, CoverageSet
 * hash insertion per trace element. Per-call scratch (the flattened
 * slot buffer and the return-value table) is reused across calls and
 * runs — an observable no-op that the reference loop benefits from
 * too — but the algorithm is untouched: this backend is the semantic
 * ground truth for the differential test.
 */
class ReferenceBackend final : public ExecBackend
{
  public:
    explicit ReferenceBackend(const kern::Kernel &kernel)
        : ExecBackend(kernel)
    {
    }

    BackendKind kind() const override { return BackendKind::Reference; }

    ExecResult
    run(const prog::Prog &prog, Rng *noise) override
    {
        ExecResult result;
        kern::KernelState state = kernel_.initialState();

        rets_.assign(prog.calls.size(), prog::kBadHandle);
        result.calls.reserve(prog.calls.size());

        for (size_t i = 0; i < prog.calls.size(); ++i) {
            const prog::Call &call = prog.calls[i];
            SP_ASSERT(call.decl != nullptr, "call %zu has no decl", i);

            auto resolver = [&](int32_t ref) -> uint64_t {
                if (ref < 0 || static_cast<size_t>(ref) >= i)
                    return prog::kBadHandle;
                return rets_[static_cast<size_t>(ref)];
            };
            prog::flattenCallInto(call, resolver, slots_);

            CallTrace trace;
            trace.call_index = static_cast<uint32_t>(i);
            trace.syscall_id = call.decl->id;
            kern::CallResult call_result = kernel_.executeCall(
                call.decl->id, slots_, state, trace.blocks, noise);

            rets_[i] = call_result.ret;
            trace.ret = call_result.ret;
            trace.crashed = call_result.crashed;
            result.coverage.addTrace(trace.blocks);
            result.calls.push_back(std::move(trace));

            if (call_result.crashed) {
                result.crashed = true;
                result.bug_index = call_result.bug_index;
                result.crash_call = i;
                break;  // the "VM" is dead
            }
        }
        return result;
    }

  private:
    std::vector<uint64_t> slots_;
    std::vector<uint64_t> rets_;
};

/**
 * The dirty-restore backend. One persistent KernelState journals every
 * mutation during a run and rolls back only the touched entries
 * afterwards; coverage dedups through the epoch-stamped dense bitmap
 * and converts to a CoverageSet once per program; all per-call scratch
 * comes from the thread-local ExecArena. Bit-identical to the
 * reference backend by construction: the CFG walk itself is the same
 * kern::Kernel::executeCall, fed the same slots and the same noise
 * stream.
 */
class FastBackend final : public ExecBackend
{
  public:
    FastBackend(const kern::Kernel &kernel, obs::Registry &metrics)
        : ExecBackend(kernel),
          restore_us_(metrics.histogram("exec.restore_us")),
          dirty_entries_(metrics.histogram("exec.dirty_entries")),
          state_(kernel.initialState())
    {
        const auto &blocks = kernel.blocks();
        succ_.resize(blocks.size());
        for (size_t i = 0; i < blocks.size(); ++i) {
            const kern::BasicBlock &bb = blocks[i];
            switch (bb.term) {
              case kern::Term::Return:
                break;
              case kern::Term::Fallthrough:
                succ_[i].taken = bb.taken;
                break;
              case kern::Term::Branch:
                succ_[i].taken = bb.taken;
                succ_[i].fallthrough = bb.fallthrough;
                break;
            }
        }
        state_.beginJournal();
    }

    BackendKind kind() const override { return BackendKind::Fast; }

    ExecResult
    run(const prog::Prog &prog, Rng *noise) override
    {
        ExecArena &arena = ExecArena::local();
        ++arena.programs;
        coverage_.bind(succ_.data(), succ_.size());
        coverage_.beginExec();

        ExecResult result;
        arena.rets.assign(prog.calls.size(), prog::kBadHandle);
        result.calls.reserve(prog.calls.size());

        // One type-erased resolver for the whole program (constructing
        // a std::function per call shows up at this call rate); the
        // current call index is read through the capture.
        size_t current_call = 0;
        const prog::ResourceResolver resolver =
            [&arena, &current_call](int32_t ref) -> uint64_t {
            if (ref < 0 || static_cast<size_t>(ref) >= current_call)
                return prog::kBadHandle;
            return arena.rets[static_cast<size_t>(ref)];
        };

        for (size_t i = 0; i < prog.calls.size(); ++i) {
            const prog::Call &call = prog.calls[i];
            SP_ASSERT(call.decl != nullptr, "call %zu has no decl", i);

            current_call = i;
            prog::flattenCallInto(call, resolver, arena.slots);

            arena.trace.clear();
            kern::CallResult call_result = kernel_.executeCall(
                call.decl->id, arena.slots, state_, arena.trace, noise);
            coverage_.addTrace(arena.trace.data(), arena.trace.size());

            CallTrace trace;
            trace.call_index = static_cast<uint32_t>(i);
            trace.syscall_id = call.decl->id;
            trace.blocks.assign(arena.trace.begin(), arena.trace.end());
            trace.ret = call_result.ret;
            trace.crashed = call_result.crashed;
            arena.rets[i] = call_result.ret;
            result.calls.push_back(std::move(trace));

            if (call_result.crashed) {
                result.crashed = true;
                result.bug_index = call_result.bug_index;
                result.crash_call = i;
                break;  // the "VM" is dead
            }
        }
        coverage_.exportTo(result.coverage);
        restore();
        return result;
    }

  private:
    /** Roll the persistent state back to the pristine snapshot and
     *  record the restore cost (`exec.restore_us`, dirty entries). */
    void
    restore()
    {
        if (!obs::timingEnabled()) {
            state_.rollback();
            return;
        }
        dirty_entries_.record(static_cast<double>(state_.dirtyCount()));
        const auto start = std::chrono::steady_clock::now();
        state_.rollback();
        const auto end = std::chrono::steady_clock::now();
        restore_us_.record(
            std::chrono::duration<double, std::micro>(end - start)
                .count());
    }

    obs::Histogram &restore_us_;
    obs::Histogram &dirty_entries_;
    kern::KernelState state_;  ///< journaled pristine snapshot
    std::vector<DenseCoverage::Successors> succ_;
    DenseCoverage coverage_;
};

}  // namespace

std::unique_ptr<ExecBackend>
makeExecBackend(const kern::Kernel &kernel, BackendKind kind,
                obs::Registry &metrics)
{
    switch (kind) {
      case BackendKind::Reference:
        return std::make_unique<ReferenceBackend>(kernel);
      case BackendKind::Fast:
        return std::make_unique<FastBackend>(kernel, metrics);
    }
    SP_PANIC("unreachable backend kind");
}

}  // namespace sp::exec
