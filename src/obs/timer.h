/**
 * @file
 * RAII timed spans feeding registry histograms.
 *
 *     Tensor matmul(...) {
 *         SP_TIMED("nn.gemm_us");
 *         ...
 *     }
 *
 * records the span's wall duration (microseconds, steady clock) into
 * the global histogram of that name on scope exit. The histogram lookup
 * happens once per call site (function-local static), so SP_TIMED is
 * for process-scoped metrics; campaign-owned sites hold a handle into
 * their campaign's registry and time with ScopedTimer directly. When
 * obs::timingEnabled() is false the span skips both clock reads, so an
 * uninstrumented run pays one relaxed atomic load per span.
 */
#ifndef SP_OBS_TIMER_H
#define SP_OBS_TIMER_H

#include <chrono>

#include "obs/metrics.h"

namespace sp::obs {

/** Times its own lifetime into a histogram (microseconds). */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram &sink)
        : sink_(timingEnabled() ? &sink : nullptr)
    {
        if (sink_)
            start_ = std::chrono::steady_clock::now();
    }

    ~ScopedTimer()
    {
        if (!sink_)
            return;
        const auto end = std::chrono::steady_clock::now();
        sink_->record(
            std::chrono::duration<double, std::micro>(end - start_)
                .count());
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Histogram *sink_;
    std::chrono::steady_clock::time_point start_;
};

}  // namespace sp::obs

#define SP_OBS_CONCAT2(a, b) a##b
#define SP_OBS_CONCAT(a, b) SP_OBS_CONCAT2(a, b)

/** Time the rest of the enclosing scope into histogram `name`. */
#define SP_TIMED(name)                                                  \
    static ::sp::obs::Histogram &SP_OBS_CONCAT(sp_timed_hist_,          \
                                               __LINE__) =              \
        ::sp::obs::Registry::global().histogram(name);                  \
    ::sp::obs::ScopedTimer SP_OBS_CONCAT(sp_timed_span_, __LINE__)(     \
        SP_OBS_CONCAT(sp_timed_hist_, __LINE__))

#endif  // SP_OBS_TIMER_H
