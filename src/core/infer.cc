#include "core/infer.h"

#include <algorithm>
#include <chrono>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace sp::core {

namespace {

/** Registry handles for the inference service (looked up once). */
struct InferMetrics
{
    obs::Counter &submitted;
    obs::Counter &completed;
    obs::Gauge &queue_depth;
    obs::Histogram &latency_us;
    obs::Histogram &batch_size;

    static InferMetrics &
    get()
    {
        auto &reg = obs::Registry::global();
        static InferMetrics metrics{
            reg.counter("infer.submitted"),
            reg.counter("infer.completed"),
            reg.gauge("infer.queue_depth"),
            reg.histogram("infer.latency_us"),
            reg.histogram("infer.batch_size"),
        };
        return metrics;
    }
};

}  // namespace

InferenceService::InferenceService(const Pmm &model, size_t workers,
                                   BatchOptions batch)
    : model_(model), batch_(batch),
      window_us_(std::max<uint32_t>(1, batch.max_window_us / 4))
{
    SP_ASSERT(workers >= 1);
    SP_ASSERT(batch_.max_batch >= 1);
    workers_.reserve(workers);
    for (size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

InferenceService::~InferenceService()
{
    {
        std::lock_guard<std::mutex> guard(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

std::future<std::vector<float>>
InferenceService::submit(graph::EncodedGraph graph, uint64_t trace_id)
{
    Request request;
    request.graph = std::move(graph);
    request.enqueued = std::chrono::steady_clock::now();
    request.trace_id = trace_id;
    if (trace_id != 0)
        request.enqueued_us = monotonicMicros();
    auto future = request.promise.get_future();
    size_t depth;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        SP_ASSERT(!stopping_, "submit after shutdown");
        queue_.push_back(std::move(request));
        depth = queue_.size();
    }
    InferMetrics &metrics = InferMetrics::get();
    metrics.submitted.inc();
    metrics.queue_depth.set(static_cast<double>(depth));
    cv_.notify_one();
    return future;
}

std::vector<float>
InferenceService::infer(const graph::EncodedGraph &graph) const
{
    return model_.predict(graph);
}

InferenceStats
InferenceService::stats() const
{
    const obs::HistogramSnapshot snap = latency_us_.snapshot();
    InferenceStats stats;
    stats.completed = static_cast<uint64_t>(snap.stat.count());
    stats.mean_latency_us = snap.stat.mean();
    stats.p50_latency_us = snap.samples.percentile(50);
    stats.p95_latency_us = snap.samples.percentile(95);
    stats.p99_latency_us = snap.samples.percentile(99);
    stats.batches = batches_.load(std::memory_order_relaxed);
    stats.mean_batch_size =
        stats.batches == 0
            ? 0.0
            : static_cast<double>(stats.completed) /
                  static_cast<double>(stats.batches);
    return stats;
}

void
InferenceService::workerLoop(size_t worker)
{
    if (obs::traceEnabled() || obs::introspectionEnabled())
        obs::setRingLabel("infer" + std::to_string(worker));
    std::vector<Request> batch;
    batch.reserve(batch_.max_batch);
    for (;;) {
        batch.clear();
        size_t depth;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            auto drain = [this, &batch] {
                while (!queue_.empty() &&
                       batch.size() < batch_.max_batch) {
                    batch.push_back(std::move(queue_.front()));
                    queue_.pop_front();
                }
            };
            drain();
            const size_t drained = batch.size();
            // Partial batch: hold the door open for stragglers, but
            // only for the adaptive window (and never at shutdown).
            if (!stopping_ && batch.size() < batch_.max_batch &&
                batch_.max_window_us > 0) {
                const auto deadline =
                    std::chrono::steady_clock::now() +
                    std::chrono::microseconds(
                        window_us_.load(std::memory_order_relaxed));
                while (batch.size() < batch_.max_batch) {
                    if (!cv_.wait_until(lock, deadline, [this] {
                            return stopping_ || !queue_.empty();
                        })) {
                        break;
                    }
                    if (stopping_ && queue_.empty())
                        break;
                    drain();
                }
                // Adapt: waiting that pays grows the window, waiting
                // that starves shrinks it.
                const uint32_t window =
                    window_us_.load(std::memory_order_relaxed);
                const uint32_t next =
                    batch.size() > drained
                        ? std::min(window * 2, batch_.max_window_us)
                        : std::max<uint32_t>(window / 2, 1);
                window_us_.store(next, std::memory_order_relaxed);
            }
            depth = queue_.size();
        }
        InferMetrics &metrics = InferMetrics::get();
        metrics.queue_depth.set(static_cast<double>(depth));

        // Queue-wait spans: one per traced request, reconstructed from
        // its submit timestamp, charged to the submitter's trace id so
        // the pipeline trace separates time-in-queue from compute.
        uint64_t batch_trace = 0;
        if (obs::traceEnabled()) {
            const uint64_t now_us = monotonicMicros();
            for (const Request &request : batch) {
                if (request.trace_id == 0)
                    continue;
                if (batch_trace == 0)
                    batch_trace = request.trace_id;
                obs::recordSpan(obs::SpanKind::InferQueue,
                                request.trace_id, request.enqueued_us,
                                now_us >= request.enqueued_us
                                    ? now_us - request.enqueued_us
                                    : 0,
                                batch.size());
            }
        }

        std::vector<const graph::EncodedGraph *> graphs;
        graphs.reserve(batch.size());
        for (const Request &request : batch)
            graphs.push_back(&request.graph);
        std::vector<std::vector<float>> probs;
        {
            // Compute span for the whole micro-batch, stamped with the
            // first traced request's id (arg = batch size).
            obs::TraceSpan span(obs::SpanKind::InferBatch, batch_trace,
                                batch.size());
            probs = batch.size() == 1
                        ? std::vector<std::vector<float>>{model_.predict(
                              *graphs[0])}
                        : model_.predictBatch(graphs);
        }

        batches_.fetch_add(1, std::memory_order_relaxed);
        metrics.completed.inc(batch.size());
        if (obs::timingEnabled())
            metrics.batch_size.record(
                static_cast<double>(batch.size()));

        const auto now = std::chrono::steady_clock::now();
        for (size_t i = 0; i < batch.size(); ++i) {
            const double latency =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    now - batch[i].enqueued)
                    .count() /
                1000.0;
            latency_us_.record(latency);
            if (obs::timingEnabled())
                metrics.latency_us.record(latency);
            if (auto *sink = obs::sink()) {
                sink->event("inference_latency",
                            {{"latency_us", latency},
                             {"batch_size", batch.size()},
                             {"queue_depth", depth}});
            }
            batch[i].promise.set_value(std::move(probs[i]));
        }
    }
}

}  // namespace sp::core
