/**
 * @file
 * Fabric tests: wire-protocol round-trips and hardening (torn frames,
 * oversized lengths, CRC mismatches, version skew), bound-port
 * reporting, lease-grid merge invariants (node-count and arrival-order
 * independence), coordinator+node in-process drains, lease re-issue
 * after a mid-campaign node death, fleet-wide crash dedup, and the
 * validation of program texts crossing the wire.
 */
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "data/format.h"
#include "data/store.h"
#include "fleet/aggregate.h"
#include "fleet/coordinator.h"
#include "fleet/node.h"
#include "fleet/wire.h"
#include "kernel/subsystems.h"
#include "obs/netio.h"
#include "obs/statusd.h"
#include "prog/gen.h"
#include "prog/serialize.h"
#include "prog/validate.h"
#include "util/rng.h"

#include "gtest/gtest.h"

namespace sp::fleet {
namespace {

kern::Kernel
testKernel()
{
    kern::KernelGenParams params;
    params.seed = 2024;
    return kern::buildBaseKernel(params);
}

/** A representative fully-populated lease result. */
LeaseResultMsg
sampleResult(uint64_t lease_id)
{
    LeaseResultMsg msg;
    msg.lease_id = lease_id;
    msg.execs = 500;
    WireProgram program;
    program.text = "r0 = open(\"/tmp/x\", 1)\n";
    program.blocks = {1, 2, 7};
    program.edges = {0x100000002ull, 0x200000007ull};
    msg.programs.push_back(program);
    WireCrash crash;
    crash.bug_index = 3;
    crash.slot = 512;
    crash.trigger = program.text;
    msg.crashes.push_back(crash);
    msg.have_cov = true;
    msg.block_deltas = {{1, 10}, {2, 4}};
    msg.edge_deltas = {{0, 3}};
    msg.stray_edges = 2;
    msg.have_policy = true;
    msg.policy_name = "thompson";
    msg.pmm_share = 0.25;
    msg.arms = {{0, 100, 12}, {3, 50, 9}};
    msg.have_shard = true;
    msg.shard = {0xde, 0xad, 0xbe, 0xef};
    return msg;
}

TEST(FleetWire, MessageCodecsRoundTrip)
{
    HelloAckMsg ack;
    ack.node_id = 7;
    ack.campaign_seed = 42;
    ack.budget = 6000;
    ack.checkpoint_every = 500;
    ack.thompson = 1;
    ack.harvest = 1;
    ack.kernel_version = "6.8";
    ack.kernel_fingerprint = 0xfeedfacecafebeefull;
    HelloAckMsg ack2;
    ASSERT_TRUE(ack2.decode(ack.encode()));
    EXPECT_EQ(ack2.node_id, ack.node_id);
    EXPECT_EQ(ack2.campaign_seed, ack.campaign_seed);
    EXPECT_EQ(ack2.budget, ack.budget);
    EXPECT_EQ(ack2.thompson, ack.thompson);
    EXPECT_EQ(ack2.kernel_version, ack.kernel_version);
    EXPECT_EQ(ack2.kernel_fingerprint, ack.kernel_fingerprint);

    LeaseGrantMsg grant;
    grant.lease_id = 9;
    grant.begin = 1500;
    grant.count = 500;
    grant.node_seed = 0x1234;
    grant.batch = {"prog a", "prog b"};
    LeaseGrantMsg grant2;
    ASSERT_TRUE(grant2.decode(grant.encode()));
    EXPECT_EQ(grant2.lease_id, grant.lease_id);
    EXPECT_EQ(grant2.begin, grant.begin);
    EXPECT_EQ(grant2.batch, grant.batch);

    const LeaseResultMsg msg = sampleResult(9);
    LeaseResultMsg msg2;
    ASSERT_TRUE(msg2.decode(msg.encode()));
    EXPECT_EQ(msg2.lease_id, msg.lease_id);
    ASSERT_EQ(msg2.programs.size(), 1u);
    EXPECT_EQ(msg2.programs[0].text, msg.programs[0].text);
    EXPECT_EQ(msg2.programs[0].blocks, msg.programs[0].blocks);
    EXPECT_EQ(msg2.programs[0].edges, msg.programs[0].edges);
    ASSERT_EQ(msg2.crashes.size(), 1u);
    EXPECT_EQ(msg2.crashes[0].bug_index, 3u);
    EXPECT_TRUE(msg2.have_cov);
    EXPECT_EQ(msg2.block_deltas, msg.block_deltas);
    EXPECT_EQ(msg2.stray_edges, 2u);
    EXPECT_TRUE(msg2.have_policy);
    EXPECT_DOUBLE_EQ(msg2.pmm_share, 0.25);
    ASSERT_EQ(msg2.arms.size(), 2u);
    EXPECT_EQ(msg2.arms[1].pulls, 50u);
    EXPECT_TRUE(msg2.have_shard);
    EXPECT_EQ(msg2.shard, msg.shard);
}

TEST(FleetWire, DecodeRejectsTruncatedPayloads)
{
    // Every truncation of a valid payload must fail cleanly (WireReader
    // trips ok(), never asserts): the peer wrote garbage, not us.
    const std::vector<uint8_t> good = sampleResult(1).encode();
    for (size_t len = 0; len < good.size(); ++len) {
        LeaseResultMsg msg;
        const std::vector<uint8_t> torn(good.begin(),
                                        good.begin() + len);
        EXPECT_FALSE(msg.decode(torn)) << "accepted at len " << len;
    }
    // Trailing junk is equally rejected (remaining() != 0).
    std::vector<uint8_t> padded = good;
    padded.push_back(0);
    LeaseResultMsg msg;
    EXPECT_FALSE(msg.decode(padded));
}

TEST(FleetWire, FrameRoundTripOverSocketpair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::vector<uint8_t> payload = sampleResult(5).encode();
    uint64_t tx = 0;
    ASSERT_TRUE(sendFrame(fds[0], MsgType::LeaseResult, payload, &tx));
    EXPECT_EQ(tx, payload.size() + 16);
    Frame frame;
    uint64_t rx = 0;
    ASSERT_EQ(recvFrame(fds[1], &frame, &rx), RecvStatus::Ok);
    EXPECT_EQ(rx, tx);
    EXPECT_EQ(frame.type, MsgType::LeaseResult);
    EXPECT_EQ(frame.payload, payload);
    ::close(fds[0]);
    ::close(fds[1]);
}

/** Build a raw frame header by hand (hardening-test fixture). */
std::vector<uint8_t>
rawHeader(uint32_t magic, uint16_t version, uint16_t type, uint32_t len,
          uint32_t crc)
{
    std::vector<uint8_t> h(16);
    std::memcpy(h.data() + 0, &magic, 4);
    std::memcpy(h.data() + 4, &version, 2);
    std::memcpy(h.data() + 6, &type, 2);
    std::memcpy(h.data() + 8, &len, 4);
    std::memcpy(h.data() + 12, &crc, 4);
    return h;
}

uint32_t
frameCrcOf(uint16_t type, const std::vector<uint8_t> &payload)
{
    const auto len = static_cast<uint32_t>(payload.size());
    uint32_t crc = data::crc32(&type, sizeof(type));
    crc = data::crc32(&len, sizeof(len), crc);
    return data::crc32(payload.data(), payload.size(), crc);
}

TEST(FleetWire, RecvRejectsEveryFrameDefect)
{
    const auto roundtrip = [](const std::vector<uint8_t> &bytes,
                              bool close_after) {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        EXPECT_TRUE(obs::sendAll(fds[0], bytes.data(), bytes.size()));
        if (close_after)
            ::close(fds[0]);
        Frame frame;
        std::string err;
        const RecvStatus status = recvFrame(fds[1], &frame, nullptr,
                                            &err);
        if (!close_after)
            ::close(fds[0]);
        ::close(fds[1]);
        return std::make_pair(status, err);
    };

    // Clean EOF: peer closed before any header byte.
    EXPECT_EQ(roundtrip({}, true).first, RecvStatus::Eof);

    // Torn header: fewer than 16 bytes, then close.
    EXPECT_EQ(roundtrip({0x53, 0x50, 0x46}, true).first,
              RecvStatus::Malformed);

    // Bad magic.
    EXPECT_EQ(roundtrip(rawHeader(0xdeadbeef, kWireVersion, 1, 0,
                                  frameCrcOf(1, {})),
                        true)
                  .first,
              RecvStatus::Malformed);

    // Version skew: well-formed header, incompatible peer.
    EXPECT_EQ(roundtrip(rawHeader(kWireMagic, kWireVersion + 1, 1, 0,
                                  frameCrcOf(1, {})),
                        true)
                  .first,
              RecvStatus::VersionSkew);

    // Oversized declared length: rejected before any allocation.
    EXPECT_EQ(roundtrip(rawHeader(kWireMagic, kWireVersion, 1,
                                  kMaxFramePayload + 1, 0),
                        true)
                  .first,
              RecvStatus::Malformed);

    // Torn payload: header promises 100 bytes, stream delivers 3.
    {
        std::vector<uint8_t> bytes =
            rawHeader(kWireMagic, kWireVersion, 1, 100, 0);
        bytes.insert(bytes.end(), {1, 2, 3});
        EXPECT_EQ(roundtrip(bytes, true).first, RecvStatus::Malformed);
    }

    // CRC mismatch: full frame, one payload bit flipped.
    {
        std::vector<uint8_t> payload = {10, 20, 30};
        std::vector<uint8_t> bytes =
            rawHeader(kWireMagic, kWireVersion, 1,
                      static_cast<uint32_t>(payload.size()),
                      frameCrcOf(1, payload));
        payload[1] ^= 0x40;
        bytes.insert(bytes.end(), payload.begin(), payload.end());
        const auto [status, err] = roundtrip(bytes, true);
        EXPECT_EQ(status, RecvStatus::Malformed);
        EXPECT_EQ(err, "crc mismatch");
    }
}

TEST(FleetNet, ListenersReportBoundEphemeralPort)
{
    // Satellite 1: both the extracted TcpListener and everything built
    // on it surface the kernel-chosen port when constructed with 0.
    obs::TcpListener listener(0);
    EXPECT_NE(listener.port(), 0u);

    obs::StatusServer status(0);
    EXPECT_NE(status.port(), 0u);
    EXPECT_NE(status.port(), listener.port());

    const kern::Kernel kernel = testKernel();
    CoordinatorOptions opts;
    opts.budget = 100;
    opts.serve_status = false;
    Coordinator coordinator(kernel, opts);
    EXPECT_NE(coordinator.port(), 0u);
}

TEST(FleetNet, LoopbackRoundTripsDoNotStallOnDelayedAcks)
{
    // A node's lease loop is request/grant round trips over loopback
    // TCP without TCP_NODELAY. A frame written as two sends (header,
    // then payload) lets Nagle hold the payload until the peer's
    // delayed ACK of the header, about 40 ms a frame on Linux; one
    // write per frame costs microseconds. 100 round trips therefore
    // take seconds with the split write and milliseconds without it.
    constexpr int kRoundTrips = 100;
    obs::TcpListener listener(0);
    LeaseGrantMsg grant;
    grant.lease_id = 7;
    grant.count = 512;
    grant.batch = {"r0 = open(\"/tmp/x\", 1)\n"};
    const std::vector<uint8_t> grant_payload = grant.encode();

    std::thread server([&] {
        const int fd = listener.acceptConnection();
        ASSERT_GE(fd, 0);
        Frame frame;
        for (int i = 0; i < kRoundTrips; ++i) {
            if (recvFrame(fd, &frame) != RecvStatus::Ok ||
                !sendFrame(fd, MsgType::LeaseGrant, grant_payload)) {
                ADD_FAILURE() << "server round trip " << i << " failed";
                break;
            }
        }
        ::close(fd);
    });

    const int fd = obs::connectTcp("127.0.0.1", listener.port());
    ASSERT_GE(fd, 0);
    const auto start = std::chrono::steady_clock::now();
    Frame frame;
    for (int i = 0; i < kRoundTrips; ++i) {
        ASSERT_TRUE(sendFrame(fd, MsgType::LeaseRequest, {}));
        ASSERT_EQ(recvFrame(fd, &frame), RecvStatus::Ok);
        ASSERT_EQ(frame.payload, grant_payload);
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ::close(fd);
    server.join();
    EXPECT_LT(elapsed, std::chrono::milliseconds(500));
}

TEST(FleetNet, CoordinatorSurvivesHostilePeers)
{
    const kern::Kernel kernel = testKernel();
    CoordinatorOptions opts;
    opts.budget = 200;
    opts.checkpoint_every = 100;
    opts.serve_status = false;
    opts.stop_grace_ms = 0;
    Coordinator coordinator(kernel, opts);

    // Peer 1: raw garbage. The coordinator must drop the connection
    // without wedging (we observe the drop as EOF on our side).
    {
        const int fd = obs::connectTcp("127.0.0.1", coordinator.port());
        ASSERT_GE(fd, 0);
        const char junk[] = "GET / HTTP/1.0\r\n\r\n";
        ASSERT_TRUE(obs::sendAll(fd, junk, sizeof(junk)));
        // Dropped, no reply: clean FIN (0) or RST (-1, the kernel's
        // answer when our unread junk was still in the peer's buffer).
        char byte;
        EXPECT_LE(::recv(fd, &byte, 1, 0), 0);
        ::close(fd);
    }

    // Peer 2: version-skewed frame header. Still parseable, so the
    // coordinator explains itself with an Error frame before closing.
    {
        const int fd = obs::connectTcp("127.0.0.1", coordinator.port());
        ASSERT_GE(fd, 0);
        const std::vector<uint8_t> header =
            rawHeader(kWireMagic, kWireVersion + 7, 1, 0,
                      frameCrcOf(1, {}));
        ASSERT_TRUE(obs::sendAll(fd, header.data(), header.size()));
        Frame reply;
        ASSERT_EQ(recvFrame(fd, &reply), RecvStatus::Ok);
        EXPECT_EQ(reply.type, MsgType::Error);
        ErrorMsg msg;
        ASSERT_TRUE(msg.decode(reply.payload));
        EXPECT_NE(msg.message.find("skew"), std::string::npos);
        ::close(fd);
    }

    // Peer 3: version skew in the Hello body (frame v1, node v99).
    {
        const int fd = obs::connectTcp("127.0.0.1", coordinator.port());
        ASSERT_GE(fd, 0);
        HelloMsg hello;
        hello.wire_version = 99;
        hello.node_name = "time-traveler";
        ASSERT_TRUE(sendFrame(fd, MsgType::Hello, hello.encode()));
        Frame reply;
        ASSERT_EQ(recvFrame(fd, &reply), RecvStatus::Ok);
        EXPECT_EQ(reply.type, MsgType::Error);
        ::close(fd);
    }

    // Peer 4: lease request before Hello — rejected, not granted.
    {
        const int fd = obs::connectTcp("127.0.0.1", coordinator.port());
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(sendFrame(fd, MsgType::LeaseRequest, {}));
        Frame reply;
        ASSERT_EQ(recvFrame(fd, &reply), RecvStatus::Ok);
        EXPECT_EQ(reply.type, MsgType::Error);
        ::close(fd);
    }

    // After all that abuse a well-behaved peer still gets served.
    {
        const int fd = obs::connectTcp("127.0.0.1", coordinator.port());
        ASSERT_GE(fd, 0);
        HelloMsg hello;
        hello.node_name = "good-citizen";
        ASSERT_TRUE(sendFrame(fd, MsgType::Hello, hello.encode()));
        Frame reply;
        ASSERT_EQ(recvFrame(fd, &reply), RecvStatus::Ok);
        ASSERT_EQ(reply.type, MsgType::HelloAck);
        HelloAckMsg ack;
        ASSERT_TRUE(ack.decode(reply.payload));
        EXPECT_EQ(ack.budget, 200u);
        ASSERT_TRUE(sendFrame(fd, MsgType::LeaseRequest, {}));
        ASSERT_EQ(recvFrame(fd, &reply), RecvStatus::Ok);
        ASSERT_EQ(reply.type, MsgType::LeaseGrant);
        LeaseGrantMsg grant;
        ASSERT_TRUE(grant.decode(reply.payload));
        EXPECT_EQ(grant.count, 100u);
        ASSERT_TRUE(sendFrame(fd, MsgType::Bye, {}));
        ::close(fd);
    }

    coordinator.stop();
    const CoordinatorStats stats = coordinator.stats();
    EXPECT_GE(stats.frame_errors, 2u);
    // The good peer's abandoned lease bounced back to the pool.
    EXPECT_EQ(stats.leases_reclaimed, 1u);
}

/** Synthetic lease results over a fixed slot grid (merge invariants). */
std::vector<LeaseResultMsg>
syntheticResults(const kern::Kernel &kernel)
{
    // Real program texts so crash dedup exercises the parse path.
    Rng rng(7);
    auto corpus = prog::generateCorpus(rng, kernel.table(), 6);
    std::vector<LeaseResultMsg> results;
    for (uint64_t i = 0; i < 6; ++i) {
        LeaseResultMsg msg;
        msg.lease_id = i + 1;
        msg.execs = 100;
        WireProgram program;
        program.text = prog::formatProg(corpus[i]);
        program.blocks = {static_cast<uint32_t>(i), 50,
                          static_cast<uint32_t>(60 + i)};
        program.edges = {i, 1000 + i};
        msg.programs.push_back(program);
        WireCrash crash;
        crash.bug_index = static_cast<uint32_t>(i % 3);  // dups across
        crash.slot = i * 100 + 5;
        crash.trigger = program.text;
        msg.crashes.push_back(crash);
        msg.have_cov = true;
        msg.block_deltas = {{static_cast<uint32_t>(i), 5 + i},
                            {50, 2 * (i + 1)}};
        msg.edge_deltas = {{static_cast<uint32_t>(i % 4), i + 1}};
        msg.stray_edges = i;
        msg.have_policy = true;
        msg.policy_name = "thompson";
        msg.pmm_share = 0.1 * static_cast<double>(i);
        msg.arms = {{static_cast<uint32_t>(i % 2), 10 * (i + 1), i}};
        results.push_back(std::move(msg));
    }
    return results;
}

TEST(FleetAggregateTest, MergeIsArrivalOrderIndependent)
{
    const kern::Kernel kernel = testKernel();
    const std::vector<LeaseResultMsg> results =
        syntheticResults(kernel);

    // The lease-grid merge invariant: any arrival order (six "nodes"
    // racing, one node sequentially — same thing at the merge) must
    // produce the identical aggregate.
    std::vector<size_t> order(results.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;

    FleetAggregate reference(kernel, true);
    for (const size_t i : order)
        reference.merge(results[i]);

    for (int permutation = 0; permutation < 5; ++permutation) {
        std::next_permutation(order.begin(), order.end());
        FleetAggregate shuffled(kernel, true);
        for (const size_t i : order)
            shuffled.merge(results[i]);
        EXPECT_EQ(shuffled.corpusSize(), reference.corpusSize());
        EXPECT_EQ(shuffled.edgeCount(), reference.edgeCount());
        EXPECT_EQ(shuffled.blockCount(), reference.blockCount());
        EXPECT_EQ(shuffled.uniqueCrashes(), reference.uniqueCrashes());
        EXPECT_EQ(shuffled.blockHits(), reference.blockHits());
        EXPECT_EQ(shuffled.edgeHits(), reference.edgeHits());
        EXPECT_EQ(shuffled.strayEdges(), reference.strayEdges());
        for (uint32_t arm = 0; arm < 2; ++arm) {
            EXPECT_EQ(shuffled.posteriorPulls(arm),
                      reference.posteriorPulls(arm));
            EXPECT_EQ(shuffled.posteriorWins(arm),
                      reference.posteriorWins(arm));
        }
        EXPECT_DOUBLE_EQ(shuffled.pmmShare(), reference.pmmShare());
    }
}

TEST(FleetAggregateTest, MergeDedupsReplayedResults)
{
    const kern::Kernel kernel = testKernel();
    const std::vector<LeaseResultMsg> results =
        syntheticResults(kernel);

    FleetAggregate once(kernel, true);
    for (const auto &result : results)
        once.merge(result);

    // Replaying every program/crash (a node re-sending after a lost
    // ack) adds nothing to corpus or crash log: programs are content-
    // addressed, crashes dedup by bug site — fleet-wide, no crash can
    // exist twice.
    FleetAggregate twice(kernel, true);
    for (const auto &result : results)
        twice.merge(result);
    for (const auto &result : results) {
        LeaseResultMsg replay = result;
        replay.have_cov = false;     // deltas are NOT idempotent;
        replay.have_policy = false;  // stale-lease drop guards those
        const MergeOutcome outcome = twice.merge(replay);
        EXPECT_EQ(outcome.new_programs, 0u);
        EXPECT_EQ(outcome.new_crashes, 0u);
    }
    EXPECT_EQ(twice.corpusSize(), once.corpusSize());
    EXPECT_EQ(twice.uniqueCrashes(), once.uniqueCrashes());
    EXPECT_EQ(twice.blockHits(), once.blockHits());
}

TEST(FleetAggregateTest, MergeRejectsHostileIndices)
{
    const kern::Kernel kernel = testKernel();
    FleetAggregate aggregate(kernel, true);
    LeaseResultMsg msg;
    msg.lease_id = 1;
    WireCrash crash;
    crash.bug_index = 0xffffffffu;  // not a bug site of this kernel
    crash.trigger = "not a program either";
    msg.crashes.push_back(crash);
    msg.have_cov = true;
    msg.block_deltas = {{0xffffffffu, 7}};  // out-of-plan index
    msg.edge_deltas = {{0xffffffffu, 7}};
    const MergeOutcome outcome = aggregate.merge(msg);
    EXPECT_EQ(outcome.new_crashes, 0u);
    EXPECT_EQ(aggregate.uniqueCrashes(), 0u);
    uint64_t total = 0;
    for (const uint64_t hits : aggregate.blockHits())
        total += hits;
    EXPECT_EQ(total, 0u);
}

/** Bump the first Len field under `arg`; false when it has none. */
bool
bumpFirstLen(prog::Arg &arg)
{
    if (arg.type->kind == prog::TypeKind::Len) {
        ++arg.scalar;
        return true;
    }
    if (arg.pointee != nullptr && bumpFirstLen(*arg.pointee))
        return true;
    for (prog::ArgPtr &field : arg.fields) {
        if (bumpFirstLen(*field))
            return true;
    }
    return false;
}

/** A program text that parses but fails validation: a generated
 *  program with a Len field one larger than its buffer. */
std::string
bumpedLenText(const kern::Kernel &kernel)
{
    Rng rng(11);
    for (int attempt = 0; attempt < 1000; ++attempt) {
        prog::Prog program = prog::generateProg(rng, kernel.table());
        for (prog::Call &call : program.calls) {
            for (prog::ArgPtr &arg : call.args) {
                if (!bumpFirstLen(*arg))
                    continue;
                const std::string text = prog::formatProg(program);
                auto parsed = prog::parseProg(text, kernel.table());
                if (parsed.ok() && prog::validateProg(*parsed.prog))
                    return text;
            }
        }
    }
    ADD_FAILURE() << "no generated program has a checkable Len field";
    return "";
}

/**
 * Play the coordinator for one node over loopback: hand it one lease
 * of `count` slots seeded with `batch` and return its LeaseResult.
 */
LeaseResultMsg
runOneLease(const kern::Kernel &kernel,
            const std::vector<std::string> &batch, uint64_t count,
            const HelloAckMsg &cfg)
{
    obs::TcpListener listener(0);
    NodeStats stats;
    std::thread node_thread([&] {
        NodeOptions node;
        node.port = listener.port();
        node.name = "probe";
        node.max_leases = 1;
        stats = runNode(node);
    });

    HelloAckMsg ack = cfg;
    ack.kernel_version = kernel.version();
    ack.kernel_fingerprint = data::kernelFingerprint(kernel);
    LeaseGrantMsg grant;
    grant.lease_id = 1;
    grant.count = count;
    grant.node_seed = 7;
    grant.batch = batch;
    ResultAckMsg result_ack;
    result_ack.accepted = 1;

    LeaseResultMsg result;
    Frame frame;
    const int fd = listener.acceptConnection();
    const bool served =
        fd >= 0 && recvFrame(fd, &frame) == RecvStatus::Ok &&
        frame.type == MsgType::Hello &&
        sendFrame(fd, MsgType::HelloAck, ack.encode()) &&
        recvFrame(fd, &frame) == RecvStatus::Ok &&
        frame.type == MsgType::LeaseRequest &&
        sendFrame(fd, MsgType::LeaseGrant, grant.encode()) &&
        recvFrame(fd, &frame) == RecvStatus::Ok &&
        frame.type == MsgType::LeaseResult &&
        result.decode(frame.payload) &&
        sendFrame(fd, MsgType::ResultAck, result_ack.encode()) &&
        recvFrame(fd, &frame) == RecvStatus::Ok &&
        frame.type == MsgType::Bye;
    if (fd >= 0)
        ::close(fd);
    node_thread.join();
    EXPECT_TRUE(served);
    EXPECT_TRUE(stats.error.empty()) << stats.error;
    return result;
}

TEST(FleetTrust, NodeDropsSeedBatchProgramsThatFailValidation)
{
    const kern::Kernel kernel = testKernel();
    Rng rng(5);
    const std::string valid =
        prog::formatProg(prog::generateProg(rng, kernel.table()));
    ASSERT_TRUE(prog::parseProg(valid, kernel.table()).ok());
    const std::string bumped = bumpedLenText(kernel);
    ASSERT_FALSE(bumped.empty());

    // A one-slot lease runs exactly its seed stage: the injected seeds
    // plus the generated exploration floor. The bumped text must not
    // be among the injected ones.
    HelloAckMsg cfg;
    cfg.covmap = 0;
    const LeaseResultMsg result =
        runOneLease(kernel, {valid, bumped}, 1, cfg);
    EXPECT_EQ(result.execs, 1u + cfg.lease_gen_seeds);
}

TEST(FleetTrust, AggregateDropsCrashTriggersThatFailValidation)
{
    const kern::Kernel kernel = testKernel();
    ASSERT_FALSE(kernel.bugs().empty());
    const std::string bumped = bumpedLenText(kernel);
    ASSERT_FALSE(bumped.empty());

    FleetAggregate aggregate(kernel, false);
    LeaseResultMsg msg;
    msg.lease_id = 1;
    WireCrash crash;
    crash.bug_index = 0;
    crash.slot = 5;
    crash.trigger = bumped;
    msg.crashes.push_back(crash);
    EXPECT_EQ(aggregate.merge(msg).new_crashes, 0u);
    EXPECT_EQ(aggregate.uniqueCrashes(), 0u);

    // The same report with a valid trigger is recorded.
    Rng rng(5);
    msg.crashes[0].trigger =
        prog::formatProg(prog::generateProg(rng, kernel.table()));
    EXPECT_EQ(aggregate.merge(msg).new_crashes, 1u);
}

TEST(FleetTrust, NodeDoesNotEchoItsSeedBatch)
{
    const kern::Kernel kernel = testKernel();
    Rng rng(9);
    std::vector<std::string> batch;
    for (const prog::Prog &program :
         prog::generateCorpus(rng, kernel.table(), 6))
        batch.push_back(prog::formatProg(program));

    HelloAckMsg cfg;
    cfg.covmap = 0;
    const LeaseResultMsg result = runOneLease(kernel, batch, 300, cfg);
    ASSERT_FALSE(result.programs.empty());
    for (const WireProgram &program : result.programs) {
        EXPECT_EQ(std::find(batch.begin(), batch.end(), program.text),
                  batch.end())
            << "echoed batch program:\n" << program.text;
    }
}

TEST(FleetFabric, TwoNodesDrainTheBudgetInProcess)
{
    const kern::Kernel kernel = testKernel();
    CoordinatorOptions opts;
    opts.budget = 400;
    opts.checkpoint_every = 100;
    opts.seed = 5;
    opts.serve_status = false;
    Coordinator coordinator(kernel, opts);

    const auto run_node = [&](const char *name) {
        NodeOptions node;
        node.port = coordinator.port();
        node.name = name;
        return runNode(node);
    };
    NodeStats s1;
    NodeStats s2;
    std::thread t1([&] { s1 = run_node("alpha"); });
    std::thread t2([&] { s2 = run_node("beta"); });
    t1.join();
    t2.join();

    EXPECT_TRUE(coordinator.drained());
    EXPECT_TRUE(s1.error.empty()) << s1.error;
    EXPECT_TRUE(s2.error.empty()) << s2.error;
    EXPECT_TRUE(s1.done);
    EXPECT_TRUE(s2.done);
    EXPECT_EQ(s1.leases + s2.leases, 4u);
    EXPECT_EQ(s1.stale + s2.stale, 0u);

    coordinator.stop();
    const CoordinatorStats stats = coordinator.stats();
    EXPECT_EQ(stats.watermark, 400u);
    EXPECT_EQ(stats.nodes_seen, 2u);
    EXPECT_GT(stats.corpus_size, 0u);
    EXPECT_GT(stats.edges, 0u);
    // Fleet-wide crash dedup: every pushed report beyond the unique
    // set was counted as a dup, and the unique set is bounded by the
    // kernel's bug sites — no crash is ever reported twice.
    EXPECT_EQ(stats.crashes_pushed,
              stats.unique_crashes + stats.crashes_deduped);
    EXPECT_LE(stats.unique_crashes, kernel.bugs().size());
}

TEST(FleetFabric, AbandonedLeaseIsReissuedAndTheFleetStillDrains)
{
    const kern::Kernel kernel = testKernel();
    CoordinatorOptions opts;
    opts.budget = 300;
    opts.checkpoint_every = 100;
    opts.seed = 9;
    opts.serve_status = false;
    Coordinator coordinator(kernel, opts);

    // Node 1 takes one lease and vanishes mid-campaign (no result, no
    // Bye). Its lease must bounce back to the pool.
    NodeOptions deserter;
    deserter.port = coordinator.port();
    deserter.name = "deserter";
    deserter.abandon_first = true;
    const NodeStats abandoned = runNode(deserter);
    EXPECT_EQ(abandoned.leases, 0u);

    // Node 2 alone must still drain the *full* budget, re-issued
    // lease included.
    NodeOptions worker;
    worker.port = coordinator.port();
    worker.name = "workhorse";
    const NodeStats finisher = runNode(worker);
    EXPECT_TRUE(finisher.error.empty()) << finisher.error;
    EXPECT_TRUE(finisher.done);
    EXPECT_EQ(finisher.leases, 3u);

    coordinator.stop();
    const CoordinatorStats stats = coordinator.stats();
    EXPECT_TRUE(coordinator.drained());
    EXPECT_EQ(stats.watermark, 300u);
    EXPECT_GE(stats.leases_reclaimed, 1u);
    EXPECT_EQ(stats.leases_granted, 4u);  // 3 ranges + 1 re-issue
}

TEST(FleetFabric, StatusPayloadsAreWellFormed)
{
    const kern::Kernel kernel = testKernel();
    CoordinatorOptions opts;
    opts.budget = 200;
    opts.checkpoint_every = 100;
    opts.serve_status = false;
    Coordinator coordinator(kernel, opts);

    NodeOptions node;
    node.port = coordinator.port();
    node.name = "solo";
    const NodeStats stats = runNode(node);
    EXPECT_TRUE(stats.error.empty()) << stats.error;

    const std::string status = coordinator.campaignJson();
    EXPECT_NE(status.find("\"type\":\"fleet\""), std::string::npos);
    EXPECT_NE(status.find("\"watermark\":200"), std::string::npos);
    EXPECT_NE(status.find("\"drained\":true"), std::string::npos);
    const std::string coverage = coordinator.coverageJson();
    EXPECT_NE(coverage.find("\"enabled\":true"), std::string::npos);
    EXPECT_NE(coverage.find("\"frontier\""), std::string::npos);
    coordinator.stop();
}

}  // namespace
}  // namespace sp::fleet
