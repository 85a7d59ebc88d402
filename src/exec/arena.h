/**
 * @file
 * Thread-local per-exec scratch arena.
 *
 * Every program execution needs a flattened-slot buffer per call, a
 * return-value table and a block-trace buffer. Allocating them per
 * call/program is pure hot-path overhead: the shapes recur, so one
 * arena per thread hands the same capacity-retaining buffers to every
 * executor running on that thread (a campaign worker's main executor
 * and its localizer's probe executor share one arena). Buffers are
 * valid only between borrow and the end of the current run — backends
 * must copy anything that escapes into the ExecResult.
 */
#ifndef SP_EXEC_ARENA_H
#define SP_EXEC_ARENA_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sp::exec {

/** Recycled per-exec scratch buffers. One per thread. */
struct ExecArena
{
    /** flattenCallInto target, reused across every call. */
    std::vector<uint64_t> slots;
    /** Return values of already-executed calls (resource resolution). */
    std::vector<uint64_t> rets;
    /** One call's block trace before it is copied into the result. */
    std::vector<uint32_t> trace;
    /** Programs served from this arena (telemetry). */
    uint64_t programs = 0;

    /** Bytes currently held across the scratch buffers. */
    size_t
    bytes() const
    {
        return slots.capacity() * sizeof(uint64_t) +
               rets.capacity() * sizeof(uint64_t) +
               trace.capacity() * sizeof(uint32_t);
    }

    /** This thread's arena (created on first use). */
    static ExecArena &local();
};

}  // namespace sp::exec

#endif  // SP_EXEC_ARENA_H
