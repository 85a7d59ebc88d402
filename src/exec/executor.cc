#include "exec/executor.h"

#include "obs/timer.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace sp::exec {

Executor::Executor(const kern::Kernel &kernel, const ExecOptions &opts,
                   obs::Registry &metrics)
    : kernel_(kernel), opts_(opts), noise_(opts.noise_seed),
      run_us_(metrics.histogram("exec.run_us")),
      coverage_blocks_(metrics.histogram("exec.coverage_blocks")),
      coverage_edges_(metrics.histogram("exec.coverage_edges")),
      backend_(makeExecBackend(kernel, opts.backend, metrics))
{
}

ExecResult
Executor::run(const prog::Prog &prog)
{
    obs::ScopedTimer timer(run_us_);
    // Execute-stage span lives here, not in the campaign loop, so
    // localizer probe runs are traced too (arg = program length).
    obs::TraceSpan trace_span(obs::SpanKind::Execute,
                              prog.calls.size());
    ++programs_executed_;
    ExecResult result =
        backend_->run(prog, opts_.deterministic ? nullptr : &noise_);
    calls_executed_ += result.calls.size();

    if (obs::timingEnabled()) {
        coverage_blocks_.record(
            static_cast<double>(result.coverage.blockCount()));
        coverage_edges_.record(
            static_cast<double>(result.coverage.edgeCount()));
    }
    return result;
}

ExecutorPool::ExecutorPool(const kern::Kernel &kernel,
                           const ExecOptions &base, size_t count,
                           obs::Registry &metrics)
{
    SP_ASSERT(count > 0, "executor pool needs at least one worker");
    executors_.reserve(count);
    for (size_t w = 0; w < count; ++w) {
        ExecOptions opts = base;
        opts.noise_seed = splitSeed(base.noise_seed, w);
        executors_.push_back(
            std::make_unique<Executor>(kernel, opts, metrics));
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
