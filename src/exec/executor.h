/**
 * @file
 * Program execution over the simulated kernel.
 *
 * Every run starts from a pristine kernel snapshot (the VM-snapshot
 * discipline of §3.1), dispatches the program's calls sequentially,
 * resolves resource references to the ids produced by earlier calls,
 * and aggregates block/edge coverage. In noisy mode (the default for
 * fuzzing, emulating the network-RPC transport) the kernel may execute
 * stray interrupt blocks and flaky bugs can trigger; deterministic mode
 * (emulating the virtio transport used for data collection) removes
 * both noise sources.
 *
 * The execution strategy itself lives behind the ExecBackend seam
 * (backend.h): the Executor owns the noise stream and throughput
 * tallies and delegates each run to its backend — the dirty-restore
 * fast backend by default, the original interpreter on request
 * (`--exec-backend ref`). Both are bit-identical; see backend.h.
 */
#ifndef SP_EXEC_EXECUTOR_H
#define SP_EXEC_EXECUTOR_H

#include <memory>
#include <vector>

#include "exec/backend.h"
#include "exec/coverage.h"
#include "kernel/kernel.h"
#include "obs/metrics.h"
#include "prog/value.h"
#include "util/rng.h"

namespace sp::exec {

/** Execution configuration. */
struct ExecOptions
{
    /** Deterministic (virtio-style) execution: no noise, no flaky bugs. */
    bool deterministic = true;
    /** Seed of the noise stream for non-deterministic mode. */
    uint64_t noise_seed = 0;
    /** Execution backend (bit-identical; Fast unless diffing). */
    BackendKind backend = BackendKind::Fast;
};

/** Executes programs against one kernel. */
class Executor
{
  public:
    /** `metrics` receives the `exec.*` telemetry (campaign executors
     *  get the campaign's registry through ExecutorPool). */
    Executor(const kern::Kernel &kernel, const ExecOptions &opts = {},
             obs::Registry &metrics = obs::Registry::global());

    /** Execute `prog` from a fresh kernel state; when `hits` is
     *  non-null, count every visit into it (see ExecBackend::run). */
    ExecResult run(const prog::Prog &prog, obs::CovShard *hits = nullptr);

    /** The kernel under test. */
    const kern::Kernel &kernel() const { return kernel_; }

    /** The backend executing this executor's programs. */
    BackendKind backendKind() const { return backend_->kind(); }

    /** Total calls dispatched so far (throughput accounting). */
    uint64_t callsExecuted() const { return calls_executed_; }

    /** Total programs executed so far. */
    uint64_t programsExecuted() const { return programs_executed_; }

  private:
    const kern::Kernel &kernel_;
    ExecOptions opts_;
    Rng noise_;
    obs::Histogram &run_us_;
    obs::Histogram &coverage_blocks_;
    obs::Histogram &coverage_edges_;
    std::unique_ptr<ExecBackend> backend_;
    uint64_t calls_executed_ = 0;
    uint64_t programs_executed_ = 0;
};

/**
 * A bank of executors, one per campaign worker. Executor 0 runs with
 * `base` verbatim (its noise stream is bit-for-bit the single-executor
 * stream), every other executor gets a noise seed split from the base
 * seed so concurrent workers draw decorrelated noise. Each worker must
 * use only its own executor; the pool itself is immutable after
 * construction. Every executor reports into `metrics`.
 */
class ExecutorPool
{
  public:
    ExecutorPool(const kern::Kernel &kernel, const ExecOptions &base,
                 size_t count,
                 obs::Registry &metrics = obs::Registry::global());

    Executor &at(size_t worker) { return *executors_[worker]; }
    const Executor &at(size_t worker) const
    {
        return *executors_[worker];
    }
    size_t size() const { return executors_.size(); }

    /** @name Pool-wide throughput tallies (quiescent reads) */
    /** @{ */
    uint64_t totalCallsExecuted() const;
    uint64_t totalProgramsExecuted() const;
    /** @} */

  private:
    std::vector<std::unique_ptr<Executor>> executors_;
};

}  // namespace sp::exec

#endif  // SP_EXEC_EXECUTOR_H
