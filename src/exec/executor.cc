#include "exec/executor.h"

#include "obs/timer.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace sp::exec {

Executor::Executor(const kern::Kernel &kernel, const ExecOptions &opts)
    : kernel_(kernel), opts_(opts), noise_(opts.noise_seed),
      backend_(makeExecBackend(kernel, opts.backend))
{
}

ExecResult
Executor::run(const prog::Prog &prog)
{
    SP_TIMED("exec.run_us");
    // Execute-stage span lives here, not in the campaign loop, so
    // localizer probe runs are traced too (arg = program length).
    obs::TraceSpan trace_span(obs::SpanKind::Execute,
                              prog.calls.size());
    ++programs_executed_;
    ExecResult result =
        backend_->run(prog, opts_.deterministic ? nullptr : &noise_);
    calls_executed_ += result.calls.size();

    if (obs::timingEnabled()) {
        static obs::Histogram &blocks_hist =
            obs::Registry::global().histogram("exec.coverage_blocks");
        static obs::Histogram &edges_hist =
            obs::Registry::global().histogram("exec.coverage_edges");
        blocks_hist.record(
            static_cast<double>(result.coverage.blockCount()));
        edges_hist.record(
            static_cast<double>(result.coverage.edgeCount()));
    }
    return result;
}

ExecutorPool::ExecutorPool(const kern::Kernel &kernel,
                           const ExecOptions &base, size_t count)
{
    SP_ASSERT(count > 0, "executor pool needs at least one worker");
    executors_.reserve(count);
    for (size_t w = 0; w < count; ++w) {
        ExecOptions opts = base;
        opts.noise_seed = splitSeed(base.noise_seed, w);
        executors_.push_back(std::make_unique<Executor>(kernel, opts));
    }
}

uint64_t
ExecutorPool::totalCallsExecuted() const
{
    uint64_t total = 0;
    for (const auto &executor : executors_)
        total += executor->callsExecuted();
    return total;
}

uint64_t
ExecutorPool::totalProgramsExecuted() const
{
    uint64_t total = 0;
    for (const auto &executor : executors_)
        total += executor->programsExecuted();
    return total;
}

}  // namespace sp::exec
