/**
 * @file
 * The execution-backend seam (wtf's multiple-backend pattern).
 *
 * An ExecBackend turns one program into one ExecResult against a
 * pristine kernel snapshot. Two implementations ship today:
 *
 *  - Reference: the original interpreter — a fresh KernelState per
 *    program and hash-set dedup per trace element. It is
 *    the semantic ground truth the differential test pins the fast
 *    backend against.
 *  - Fast: dirty-tracking state restore (KernelState's undo journal:
 *    restore cost scales with state *touched*, not state *size*),
 *    an epoch-stamped dense coverage bitmap sized from the kernel's
 *    static block count (no clearing between execs — bump the epoch),
 *    and thread-local exec-arena scratch for slot buffers, traces and
 *    return-value tables.
 *
 * Both backends are bit-identical in deterministic and noisy modes —
 * same ExecResult, same coverage, same crash attribution — which is
 * what lets the fuzzing stack default to Fast while keeping Reference
 * as the differential oracle (and leaves room for a batched/JIT
 * backend behind the same seam later).
 */
#ifndef SP_EXEC_BACKEND_H
#define SP_EXEC_BACKEND_H

#include <memory>
#include <string>
#include <vector>

#include "exec/coverage.h"
#include "kernel/kernel.h"
#include "prog/value.h"
#include "util/rng.h"

namespace sp::obs {
class CovShard;
class Registry;
}

namespace sp::exec {

/** Which execution backend runs the program. */
enum class BackendKind : uint8_t {
    Reference,  ///< original interpreter (differential oracle)
    Fast,       ///< dirty-restore + dense-coverage + arena scratch
};

/** Short name of a backend kind ("ref" / "fast"). */
const char *backendKindName(BackendKind kind);

/**
 * Parse a backend name ("ref", "reference", "fast") into `out`.
 * Returns false on an unknown name.
 */
bool parseBackendKind(const std::string &name, BackendKind *out);

/** Trace of one executed call. */
struct CallTrace
{
    uint32_t call_index = 0;
    uint32_t syscall_id = 0;
    std::vector<uint32_t> blocks;
    uint64_t ret = 0;
    bool crashed = false;
};

/** Result of executing a whole program. */
struct ExecResult
{
    std::vector<CallTrace> calls;
    CoverageSet coverage;
    bool crashed = false;
    uint32_t bug_index = 0;   ///< valid when crashed
    size_t crash_call = 0;    ///< call index that crashed
};

/**
 * One execution strategy over one kernel. Backends are stateful
 * (scratch, persistent snapshots) and not thread-safe: each Executor
 * owns one and drives it from one thread at a time, exactly like the
 * Executor itself.
 */
class ExecBackend
{
  public:
    explicit ExecBackend(const kern::Kernel &kernel) : kernel_(kernel) {}
    virtual ~ExecBackend() = default;

    ExecBackend(const ExecBackend &) = delete;
    ExecBackend &operator=(const ExecBackend &) = delete;

    /**
     * Execute `prog` from the pristine kernel snapshot. `noise` is the
     * executor's nondeterministic timing source, or nullptr in
     * deterministic mode; a backend must consume it exactly as the
     * reference backend does (the bit-identity contract covers the
     * noise stream). When `hits` is non-null, every call's block trace
     * is also counted into it, exactly as obs::CovShard::recordTrace
     * counts it (the reference backend calls recordTrace; the fast one
     * counts inside its coverage pass).
     */
    virtual ExecResult run(const prog::Prog &prog, Rng *noise,
                           obs::CovShard *hits) = 0;

    virtual BackendKind kind() const = 0;

    const kern::Kernel &kernel() const { return kernel_; }

  protected:
    const kern::Kernel &kernel_;
};

/** Build a backend of `kind` over `kernel`; its restore telemetry
 *  (`exec.restore_us`, `exec.dirty_entries`) goes to `metrics`. */
std::unique_ptr<ExecBackend> makeExecBackend(const kern::Kernel &kernel,
                                             BackendKind kind,
                                             obs::Registry &metrics);

}  // namespace sp::exec

#endif  // SP_EXEC_BACKEND_H
