#include "fleet/coordinator.h"

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "data/store.h"
#include "kernel/kernel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/rng.h"

namespace sp::fleet {

namespace {

std::string
jsonDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

}  // namespace

Coordinator::Coordinator(const kern::Kernel &kernel,
                         CoordinatorOptions opts)
    : kernel_(kernel),
      opts_(std::move(opts)),
      checkpoint_every_(opts_.checkpoint_every != 0
                            ? opts_.checkpoint_every
                            : std::max<uint64_t>(1, opts_.budget / 12)),
      lease_slots_(0),
      kernel_fingerprint_(data::kernelFingerprint(kernel)),
      metrics_(obs::Registry::global()),
      aggregate_(kernel, opts_.covmap),
      recorder_(obs::TimelineOptions{}),
      listener_(opts_.port)
{
    // Leases align to the checkpoint grid so the merged fleet timeline
    // samples the exact grid a single-process campaign samples — the
    // shared-execs intersection `sp_analysis compare` aligns on.
    const uint64_t want =
        opts_.lease_slots != 0 ? opts_.lease_slots : checkpoint_every_;
    lease_slots_ =
        ((want + checkpoint_every_ - 1) / checkpoint_every_) *
        checkpoint_every_;

    // Create the fleet counters up front so /metrics carries them (at
    // zero) from the first scrape.
    for (const char *name :
         {"fleet.leases_granted", "fleet.leases_expired",
          "fleet.programs_pushed", "fleet.programs_deduped",
          "fleet.crashes_pushed", "fleet.crashes_deduped",
          "fleet.bytes_rx", "fleet.bytes_tx", "fleet.reconnects",
          "fleet.frame_errors", "fleet.results_stale",
          "fleet.shards_received"})
        metrics_.counter(name);

    if (!opts_.harvest_dir.empty())
        ::mkdir(opts_.harvest_dir.c_str(), 0755);

    if (!opts_.timeline_out.empty()) {
        std::string extra = "\"campaign\":{\"seed\":";
        extra += std::to_string(opts_.seed);
        extra += ",\"budget\":";
        extra += std::to_string(opts_.budget);
        extra += ",\"workers\":0,\"policy\":\"";
        extra += opts_.thompson ? "thompson" : "static";
        extra += "\",\"fleet\":true},\"kernel\":{\"seed\":";
        extra += std::to_string(opts_.kernel_seed);
        extra += ",\"version\":\"" + kernel_.version();
        extra += "\",\"evolution\":";
        extra += std::to_string(opts_.kernel_evolution);
        extra += "}";
        if (!recorder_.openLog(opts_.timeline_out, extra))
            SP_FATAL("fleet: cannot open --timeline-out %s",
                     opts_.timeline_out.c_str());
        timeline_open_ = true;
    }

    if (opts_.serve_status) {
        obs::setStatusProvider([this] { return campaignJson(); });
        obs::setCoverageProvider([this] { return coverageJson(); });
        if (timeline_open_) {
            obs::setTimelineProvider(
                [this] { return recorder_.recentJson(); });
        }
    }

    accept_thread_ = std::thread([this] { acceptLoop(); });
}

Coordinator::~Coordinator()
{
    stop();
}

void
Coordinator::stop()
{
    if (stopping_.exchange(true))
        return;
    listener_.unblock();
    if (accept_thread_.joinable())
        accept_thread_.join();
    {
        // Grace window: let connected nodes reach their lease boundary,
        // pick up the done grant and say Bye. A drained fleet empties
        // conn_fds_ well inside the window; only a wedged peer rides it
        // out and gets cut.
        std::unique_lock<std::mutex> lock(mu_);
        conns_cv_.wait_for(
            lock, std::chrono::milliseconds(opts_.stop_grace_ms),
            [this] { return conn_fds_.empty(); });
        for (const auto &[conn, fd] : conn_fds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    for (auto &handler : handlers_) {
        if (handler.joinable())
            handler.join();
    }
    std::lock_guard<std::mutex> lock(mu_);
    finalizeLocked();
    if (opts_.serve_status) {
        // Freeze the final snapshots into the providers (the campaign
        // ProviderGuard discipline): scrapes through --status-hold must
        // not reach into a dead coordinator.
        obs::setStatusProvider(
            [frozen = campaignJsonLocked()] { return frozen; });
        obs::setCoverageProvider(
            [frozen = aggregate_.coverageJson(watermark_)] {
                return frozen;
            });
        if (timeline_open_) {
            obs::setTimelineProvider(
                [frozen = recorder_.recentJson()] { return frozen; });
        }
    }
}

bool
Coordinator::waitUntilDrained(uint64_t timeout_ms)
{
    std::unique_lock<std::mutex> lock(mu_);
    if (timeout_ms == 0) {
        drained_cv_.wait(lock, [this] { return drained_; });
        return true;
    }
    return drained_cv_.wait_for(lock,
                                std::chrono::milliseconds(timeout_ms),
                                [this] { return drained_; });
}

bool
Coordinator::drained() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return drained_;
}

CoordinatorStats
Coordinator::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    CoordinatorStats out = tallies_;
    out.watermark = watermark_;
    out.corpus_size = aggregate_.corpusSize();
    out.edges = aggregate_.edgeCount();
    out.blocks = aggregate_.blockCount();
    out.unique_crashes = aggregate_.uniqueCrashes();
    return out;
}

size_t
Coordinator::timelineSamples() const
{
    return recorder_.sampleCount();
}

std::string
Coordinator::coverageJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return aggregate_.coverageJson(watermark_);
}

std::string
Coordinator::campaignJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return campaignJsonLocked();
}

std::string
Coordinator::campaignJsonLocked() const
{
    std::string out;
    out.reserve(512);
    out += "{\"type\":\"fleet\",\"budget\":";
    out += std::to_string(opts_.budget);
    out += ",\"checkpoint_every\":";
    out += std::to_string(checkpoint_every_);
    out += ",\"lease_slots\":";
    out += std::to_string(lease_slots_);
    out += ",\"watermark\":";
    out += std::to_string(watermark_);
    out += ",\"granted_slots\":";
    out += std::to_string(next_begin_);
    out += ",\"drained\":";
    out += drained_ ? "true" : "false";
    out += ",\"nodes_seen\":";
    out += std::to_string(tallies_.nodes_seen);
    out += ",\"leases_granted\":";
    out += std::to_string(tallies_.leases_granted);
    out += ",\"leases_outstanding\":";
    out += std::to_string(outstanding_.size());
    out += ",\"leases_reclaimed\":";
    out += std::to_string(tallies_.leases_reclaimed);
    out += ",\"results_stale\":";
    out += std::to_string(tallies_.results_stale);
    out += ",\"programs_pushed\":";
    out += std::to_string(tallies_.programs_pushed);
    out += ",\"programs_deduped\":";
    out += std::to_string(tallies_.programs_deduped);
    out += ",\"corpus_size\":";
    out += std::to_string(aggregate_.corpusSize());
    out += ",\"edges\":";
    out += std::to_string(aggregate_.edgeCount());
    out += ",\"blocks\":";
    out += std::to_string(aggregate_.blockCount());
    out += ",\"unique_crashes\":";
    out += std::to_string(aggregate_.uniqueCrashes());
    out += ",\"policy\":{\"name\":\"";
    out += aggregate_.havePolicy() ? aggregate_.policyName()
                                   : std::string("none");
    out += "\",\"pmm_share\":";
    out += jsonDouble(aggregate_.pmmShare());
    uint64_t pulls = 0;
    uint64_t wins = 0;
    const auto arms = aggregate_.posteriorArms();
    for (const WireArm &arm : arms) {
        pulls += arm.pulls;
        wins += arm.wins;
    }
    out += ",\"arms\":";
    out += std::to_string(arms.size());
    out += ",\"pulls\":";
    out += std::to_string(pulls);
    out += ",\"wins\":";
    out += std::to_string(wins);
    out += "}}";
    return out;
}

void
Coordinator::acceptLoop()
{
    uint64_t next_conn = 0;
    for (;;) {
        const int fd = listener_.acceptConnection();
        if (fd < 0) {
            if (stopping_.load(std::memory_order_acquire)) {
                listener_.close();
                return;
            }
            continue;
        }
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_.load(std::memory_order_acquire)) {
            ::close(fd);
            continue;
        }
        const uint64_t conn_id = ++next_conn;
        conn_fds_[conn_id] = fd;
        handlers_.emplace_back(
            [this, fd, conn_id] { handleConnection(fd, conn_id); });
    }
}

void
Coordinator::handleConnection(int fd, uint64_t conn_id)
{
    bool greeted = false;
    uint64_t tx = 0;

    const auto reply = [&](MsgType type,
                           const std::vector<uint8_t> &payload) {
        const uint64_t before = tx;
        const bool ok = sendFrame(fd, type, payload, &tx);
        metrics_.counter("fleet.bytes_tx").inc(tx - before);
        {
            std::lock_guard<std::mutex> lock(mu_);
            tallies_.bytes_tx += tx - before;
        }
        return ok;
    };

    for (;;) {
        Frame frame;
        uint64_t rx = 0;
        std::string err;
        const RecvStatus status = recvFrame(fd, &frame, &rx, &err);
        metrics_.counter("fleet.bytes_rx").inc(rx);
        {
            std::lock_guard<std::mutex> lock(mu_);
            tallies_.bytes_rx += rx;
        }
        if (status == RecvStatus::VersionSkew) {
            // The header is well-formed, so the peer can still parse a
            // v1 Error frame; tell it why before hanging up.
            ErrorMsg msg;
            msg.message = "wire version skew (coordinator speaks v" +
                          std::to_string(kWireVersion) + ")";
            reply(MsgType::Error, msg.encode());
            metrics_.counter("fleet.frame_errors").inc();
            std::lock_guard<std::mutex> lock(mu_);
            ++tallies_.frame_errors;
            break;
        }
        if (status == RecvStatus::Malformed) {
            // Unknown stream position: drop this connection, keep
            // serving every other peer.
            metrics_.counter("fleet.frame_errors").inc();
            std::lock_guard<std::mutex> lock(mu_);
            ++tallies_.frame_errors;
            break;
        }
        if (status == RecvStatus::Eof)
            break;

        if (frame.type == MsgType::Hello) {
            HelloMsg hello;
            if (!hello.decode(frame.payload)) {
                metrics_.counter("fleet.frame_errors").inc();
                break;
            }
            if (hello.wire_version != kWireVersion) {
                ErrorMsg msg;
                msg.message =
                    "handshake version skew: node speaks v" +
                    std::to_string(hello.wire_version) +
                    ", coordinator v" + std::to_string(kWireVersion);
                reply(MsgType::Error, msg.encode());
                break;
            }
            HelloAckMsg ack;
            {
                std::lock_guard<std::mutex> lock(mu_);
                if (!node_names_.insert(hello.node_name).second) {
                    metrics_.counter("fleet.reconnects").inc();
                    ++tallies_.reconnects;
                } else {
                    ++tallies_.nodes_seen;
                }
                ack.node_id = ++next_node_id_;
            }
            ack.campaign_seed = opts_.seed;
            ack.budget = opts_.budget;
            ack.checkpoint_every = checkpoint_every_;
            ack.thompson = opts_.thompson ? 1 : 0;
            ack.covmap = opts_.covmap ? 1 : 0;
            ack.harvest = opts_.harvest_dir.empty() ? 0 : 1;
            ack.seed_corpus_size = opts_.seed_corpus_size;
            ack.lease_gen_seeds = opts_.lease_gen_seeds;
            ack.kernel_seed = opts_.kernel_seed;
            ack.kernel_version = kernel_.version();
            ack.kernel_evolution = opts_.kernel_evolution;
            ack.kernel_fingerprint = kernel_fingerprint_;
            greeted = true;
            if (!reply(MsgType::HelloAck, ack.encode()))
                break;
            continue;
        }

        if (!greeted) {
            ErrorMsg msg;
            msg.message = "handshake required before " +
                          std::to_string(
                              static_cast<unsigned>(frame.type));
            reply(MsgType::Error, msg.encode());
            break;
        }

        if (frame.type == MsgType::LeaseRequest) {
            LeaseGrantMsg grant;
            {
                std::lock_guard<std::mutex> lock(mu_);
                grant = grantLocked(conn_id);
            }
            if (!reply(MsgType::LeaseGrant, grant.encode()))
                break;
            continue;
        }

        if (frame.type == MsgType::LeaseResult) {
            LeaseResultMsg result;
            if (!result.decode(frame.payload)) {
                metrics_.counter("fleet.frame_errors").inc();
                break;
            }
            ResultAckMsg ack;
            {
                std::lock_guard<std::mutex> lock(mu_);
                ack = completeLocked(conn_id, result);
            }
            if (!reply(MsgType::ResultAck, ack.encode()))
                break;
            continue;
        }

        if (frame.type == MsgType::Bye)
            break;

        ErrorMsg msg;
        msg.message = "unexpected frame type " +
                      std::to_string(static_cast<unsigned>(frame.type));
        reply(MsgType::Error, msg.encode());
        break;
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        releaseConnectionLocked(conn_id);
        conn_fds_.erase(conn_id);
        conns_cv_.notify_all();
    }
    ::close(fd);
}

LeaseGrantMsg
Coordinator::grantLocked(uint64_t conn_id)
{
    sweepExpiredLocked();

    LeaseGrantMsg grant;
    uint64_t begin = 0;
    uint64_t count = 0;
    if (!returned_.empty()) {
        begin = returned_.front().first;
        count = returned_.front().second;
        returned_.pop_front();
    } else if (next_begin_ < opts_.budget) {
        begin = next_begin_;
        count = std::min(lease_slots_, opts_.budget - begin);
        next_begin_ += count;
    } else {
        // Nothing to carve. Outstanding leases may still fail and
        // return to the pool, so the node only goes home once the
        // watermark proves every slot completed.
        grant.done = drained_ ? 1 : 0;
        return grant;
    }

    const uint64_t id = ++next_lease_id_;
    Lease &lease = outstanding_[id];
    lease.begin = begin;
    lease.count = count;
    lease.conn = conn_id;
    lease.granted_at = std::chrono::steady_clock::now();

    grant.lease_id = id;
    grant.begin = begin;
    grant.count = count;
    // Every lease gets its own RNG stream: re-issued ranges explore a
    // fresh trajectory instead of replaying the lost node's.
    grant.node_seed = splitSeed(opts_.seed, id);
    grant.batch = aggregate_.seedBatch(opts_.seed_batch_max);
    metrics_.counter("fleet.leases_granted").inc();
    ++tallies_.leases_granted;
    return grant;
}

void
Coordinator::sweepExpiredLocked()
{
    if (opts_.lease_timeout_ms == 0)
        return;
    const auto now = std::chrono::steady_clock::now();
    const auto limit = std::chrono::milliseconds(opts_.lease_timeout_ms);
    std::vector<uint64_t> expired;
    for (const auto &[id, lease] : outstanding_) {
        if (now - lease.granted_at > limit)
            expired.push_back(id);
    }
    for (const uint64_t id : expired)
        reclaimLocked(id);
}

void
Coordinator::reclaimLocked(uint64_t lease_id)
{
    const auto it = outstanding_.find(lease_id);
    if (it == outstanding_.end())
        return;
    returned_.emplace_back(it->second.begin, it->second.count);
    outstanding_.erase(it);
    metrics_.counter("fleet.leases_expired").inc();
    ++tallies_.leases_reclaimed;
}

void
Coordinator::releaseConnectionLocked(uint64_t conn_id)
{
    std::vector<uint64_t> held;
    for (const auto &[id, lease] : outstanding_) {
        if (lease.conn == conn_id)
            held.push_back(id);
    }
    for (const uint64_t id : held)
        reclaimLocked(id);
}

ResultAckMsg
Coordinator::completeLocked(uint64_t conn_id,
                            const LeaseResultMsg &result)
{
    ResultAckMsg ack;
    const auto it = outstanding_.find(result.lease_id);
    if (it == outstanding_.end() || it->second.conn != conn_id) {
        // Reclaimed and possibly re-issued: merging would double-count
        // the slot range, so the whole result is dropped.
        metrics_.counter("fleet.results_stale").inc();
        ++tallies_.results_stale;
        return ack;
    }
    const Lease lease = it->second;
    outstanding_.erase(it);

    const MergeOutcome outcome = aggregate_.merge(result);
    metrics_.counter("fleet.programs_pushed").inc(result.programs.size());
    metrics_.counter("fleet.programs_deduped").inc(outcome.dup_programs);
    metrics_.counter("fleet.crashes_pushed").inc(result.crashes.size());
    metrics_.counter("fleet.crashes_deduped").inc(outcome.dup_crashes);
    tallies_.programs_pushed += result.programs.size();
    tallies_.programs_deduped += outcome.dup_programs;
    tallies_.crashes_pushed += result.crashes.size();
    tallies_.crashes_deduped += outcome.dup_crashes;
    if (result.have_shard)
        writeShardLocked(result.shard);

    done_ranges_[lease.begin] = lease.begin + lease.count;
    auto next = done_ranges_.find(watermark_);
    while (next != done_ranges_.end()) {
        watermark_ = next->second;
        done_ranges_.erase(next);
        next = done_ranges_.find(watermark_);
    }
    emitTicksLocked();
    if (watermark_ >= opts_.budget && !drained_) {
        drained_ = true;
        finalizeLocked();
        drained_cv_.notify_all();
    }

    ack.accepted = 1;
    ack.new_programs = outcome.new_programs;
    ack.new_crashes = outcome.new_crashes;
    return ack;
}

obs::TimelineTick
Coordinator::buildTickLocked(uint64_t execs) const
{
    obs::TimelineTick tick;
    tick.execs = execs;
    tick.edges = aggregate_.edgeCount();
    tick.blocks = aggregate_.blockCount();
    tick.crashes = aggregate_.uniqueCrashes();
    tick.corpus_size = aggregate_.corpusSize();
    if (aggregate_.covmapEnabled())
        tick.cov = aggregate_.covSummary(execs);
    if (aggregate_.havePolicy()) {
        tick.have_policy = true;
        tick.policy_name = aggregate_.policyName();
        tick.pmm_share = aggregate_.pmmShare();
        for (const WireArm &arm : aggregate_.posteriorArms()) {
            obs::TimelineArm entry;
            entry.arm = static_cast<int>(arm.arm);
            entry.pulls = arm.pulls;
            entry.wins = arm.wins;
            tick.arms.push_back(entry);
        }
    }
    return tick;
}

void
Coordinator::emitTicksLocked()
{
    if (!timeline_open_)
        return;
    // One sample per crossed grid boundary, in order. The merged state
    // sampled at boundary k is everything the watermark's contiguous
    // prefix completed — the fleet analog of the multi-worker
    // checkpoint windows (prefix-consistent, not slot-exact).
    while ((ticks_emitted_ + 1) * checkpoint_every_ <= watermark_) {
        ++ticks_emitted_;
        recorder_.onCheckpoint(
            buildTickLocked(ticks_emitted_ * checkpoint_every_), metrics_);
    }
}

void
Coordinator::finalizeLocked()
{
    if (!timeline_open_ || finalized_)
        return;
    finalized_ = true;
    recorder_.finalize(buildTickLocked(watermark_), metrics_);
}

void
Coordinator::writeShardLocked(const std::vector<uint8_t> &bytes)
{
    if (opts_.harvest_dir.empty() || bytes.empty())
        return;
    // Content-addressed shard name: a re-sent shard maps to the same
    // path and is skipped, making pushes idempotent (the mergeStore
    // identity discipline).
    const uint32_t key = data::crc32(bytes.data(), bytes.size());
    char name[32];
    std::snprintf(name, sizeof(name), "fleet-%08x.spds", key);
    const std::string path = opts_.harvest_dir + "/" + name;
    struct stat st;
    if (::stat(path.c_str(), &st) == 0)
        return;  // already landed (idempotent re-send)
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return;
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    metrics_.counter("fleet.shards_received").inc();
    ++tallies_.shards_received;
}

}  // namespace sp::fleet
