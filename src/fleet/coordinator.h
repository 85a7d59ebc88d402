/**
 * @file
 * The fabric coordinator: owns the campaign's virtual-time budget as
 * a lease grant table, serves nodes over the wire protocol (wire.h),
 * merges everything they push into one FleetAggregate, and records
 * the merged fleet timeline on the same checkpoint grid a
 * single-process campaign uses — so `sp_analysis compare` can diff a
 * fleet run against a `--workers 1` baseline directly.
 *
 * Lease lifecycle (DESIGN.md §16):
 *
 *   carve -> grant -> [result arrives] -> complete -> watermark
 *                  \-> [disconnect / timeout] -> reclaim -> re-grant
 *
 * The budget is carved into checkpoint-aligned slot ranges. A node
 * holds at most the ranges it was granted; a connection that dies
 * with outstanding leases returns them to the pool, and a lease held
 * longer than `lease_timeout_ms` is reclaimed by the sweep that runs
 * on every grant — either way the fleet drains the full budget. A
 * result for a reclaimed (re-issued) lease is acknowledged as stale
 * and dropped whole, so no slot range is merged twice.
 */
#ifndef SP_FLEET_COORDINATOR_H
#define SP_FLEET_COORDINATOR_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fleet/aggregate.h"
#include "fleet/wire.h"
#include "obs/netio.h"
#include "obs/timeline.h"

namespace sp::fleet {

struct CoordinatorOptions
{
    uint16_t port = 0;           ///< 0 = ephemeral; see port()
    uint64_t budget = 6000;      ///< fleet-wide virtual-time slots
    uint64_t checkpoint_every = 0;  ///< 0 = budget/12 (the CLI grid)
    /** Slots per lease, rounded up to the checkpoint grid; 0 = one
     *  checkpoint interval per lease. */
    uint64_t lease_slots = 0;
    uint64_t seed = 1;           ///< campaign seed (lease seeds split it)
    bool thompson = false;       ///< node lease campaigns' policy
    bool covmap = true;          ///< nodes push lease-grid cov deltas
    uint32_t seed_corpus_size = 40;  ///< node seeds with empty batch
    uint32_t lease_gen_seeds = 8;    ///< node seeds atop a batch
    uint32_t seed_batch_max = 32;    ///< programs per seed batch
    /** Reclaim a lease outstanding this long (0 disables the sweep;
     *  disconnect reclaim always runs). */
    uint64_t lease_timeout_ms = 30000;
    /** Kernel identity shipped to nodes (the coordinator's kernel must
     *  be buildBaseKernel({kernel_seed, version, evolution})). */
    uint64_t kernel_seed = 2024;
    uint32_t kernel_evolution = 0;
    std::string timeline_out;    ///< merged fleet timeline artifact
    std::string harvest_dir;     ///< pushed training shards land here
    /** Register the fleet /status, /coverage and /timeline providers
     *  on the process-wide status server seams. */
    bool serve_status = true;
    /**
     * stop() lets connected nodes finish their conversation (request
     * the done grant, send Bye) for up to this long before cutting the
     * remaining connections. Drained fleets exit this window early —
     * every node sits at a lease boundary once the watermark proves
     * the budget complete.
     */
    uint64_t stop_grace_ms = 2000;
};

/** End-of-run coordinator tallies (tests + the CLI summary). */
struct CoordinatorStats
{
    uint64_t watermark = 0;
    uint64_t leases_granted = 0;
    uint64_t leases_reclaimed = 0;
    uint64_t results_stale = 0;
    uint64_t programs_pushed = 0;
    uint64_t programs_deduped = 0;
    uint64_t crashes_pushed = 0;
    uint64_t crashes_deduped = 0;
    uint64_t shards_received = 0;
    uint64_t bytes_rx = 0;
    uint64_t bytes_tx = 0;
    uint64_t reconnects = 0;
    uint64_t frame_errors = 0;
    uint64_t nodes_seen = 0;
    size_t corpus_size = 0;
    size_t edges = 0;
    size_t blocks = 0;
    size_t unique_crashes = 0;
};

class Coordinator
{
  public:
    /** Binds, opens the timeline artifact, starts serving. `kernel`
     *  must outlive the coordinator. */
    Coordinator(const kern::Kernel &kernel, CoordinatorOptions opts);

    /** stop()s if still running. */
    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /** The bound port (the ephemeral pick when constructed with 0). */
    uint16_t port() const { return listener_.port(); }

    uint64_t budget() const { return opts_.budget; }
    uint64_t checkpointEvery() const { return checkpoint_every_; }
    uint64_t leaseSlots() const { return lease_slots_; }

    /**
     * Block until the watermark reaches the budget. `timeout_ms` 0
     * waits forever. True when drained.
     */
    bool waitUntilDrained(uint64_t timeout_ms = 0);

    /** Stop accepting, drop connections, join threads, finalize the
     *  timeline artifact (with whatever progress was merged). */
    void stop();

    /** @name Introspection (thread-safe) */
    /** @{ */
    CoordinatorStats stats() const;
    bool drained() const;
    /** The /status "campaign" payload (fleet_status.schema.json). */
    std::string campaignJson() const;
    /** The /coverage payload (merged fleet covmap summary). */
    std::string coverageJson() const;
    /** Merged covmap hit maps (lease-grid merge invariant tests). */
    std::vector<uint64_t> covBlockHits() const;
    std::vector<uint64_t> covEdgeHits() const;
    /** Merged posterior counts for one arm. */
    uint64_t posteriorPulls(uint32_t arm) const;
    uint64_t posteriorWins(uint32_t arm) const;
    size_t timelineSamples() const;
    /** @} */

  private:
    struct Lease
    {
        uint64_t begin = 0;
        uint64_t count = 0;
        uint64_t conn = 0;
        std::chrono::steady_clock::time_point granted_at;
    };

    void acceptLoop();
    void handleConnection(int fd, uint64_t conn_id);
    LeaseGrantMsg grantLocked(uint64_t conn_id);
    ResultAckMsg completeLocked(uint64_t conn_id,
                                const LeaseResultMsg &result);
    void sweepExpiredLocked();
    void reclaimLocked(uint64_t lease_id);
    void releaseConnectionLocked(uint64_t conn_id);
    void emitTicksLocked();
    obs::TimelineTick buildTickLocked(uint64_t execs) const;
    void finalizeLocked();
    void writeShardLocked(const std::vector<uint8_t> &bytes);
    std::string campaignJsonLocked() const;

    const kern::Kernel &kernel_;
    CoordinatorOptions opts_;
    uint64_t checkpoint_every_;
    uint64_t lease_slots_;
    uint64_t kernel_fingerprint_;
    /** The coordinator's `fleet.*` metrics (a child of the global
     *  registry), which its timeline samples. */
    obs::Registry metrics_;

    mutable std::mutex mu_;
    std::condition_variable drained_cv_;
    /** Signals conn_fds_ shrinking (stop()'s grace wait). */
    std::condition_variable conns_cv_;
    FleetAggregate aggregate_;
    obs::TimelineRecorder recorder_;
    bool timeline_open_ = false;

    /** Grant table. */
    uint64_t next_begin_ = 0;
    uint64_t next_lease_id_ = 0;
    std::unordered_map<uint64_t, Lease> outstanding_;
    std::deque<std::pair<uint64_t, uint64_t>> returned_;
    std::map<uint64_t, uint64_t> done_ranges_;  ///< begin -> end
    uint64_t watermark_ = 0;
    uint64_t ticks_emitted_ = 0;
    bool drained_ = false;
    bool finalized_ = false;

    /** Node registry + tallies. */
    std::unordered_set<std::string> node_names_;
    uint32_t next_node_id_ = 0;
    CoordinatorStats tallies_;

    /** Connections. */
    std::atomic<bool> stopping_{false};
    obs::TcpListener listener_;
    std::unordered_map<uint64_t, int> conn_fds_;
    std::thread accept_thread_;
    std::vector<std::thread> handlers_;
};

}  // namespace sp::fleet

#endif  // SP_FLEET_COORDINATOR_H
