/**
 * @file
 * The fabric wire protocol: versioned, CRC-framed, length-prefixed
 * binary messages over plain POSIX TCP (DESIGN.md §16).
 *
 * Frame layout (host byte order — the fabric links same-architecture
 * processes, single host or homogeneous fleet, exactly like the shard
 * format in data/format.h whose discipline this mirrors):
 *
 *   u32 magic   'S''P''F''1'
 *   u16 version kWireVersion
 *   u16 type    MsgType
 *   u32 len     payload bytes that follow (<= kMaxFramePayload)
 *   u32 crc     data::crc32 over (type, len, payload)
 *   u8  payload[len]
 *
 * Every defect a peer can present — torn header, truncated payload,
 * oversized declared length, CRC mismatch, version skew — maps to a
 * distinct RecvStatus so the receiver can drop exactly that
 * connection and keep serving everyone else. Nothing here trusts the
 * peer: payload decoding goes through WireReader, which turns any
 * structural overrun into a decode failure instead of an assertion.
 */
#ifndef SP_FLEET_WIRE_H
#define SP_FLEET_WIRE_H

#include <cstdint>
#include <string>
#include <vector>

#include "data/format.h"

namespace sp::fleet {

constexpr uint32_t kWireMagic = 0x31465053;  // "SPF1" little-endian
constexpr uint16_t kWireVersion = 1;
/** Per-frame payload bound (same scale as data::kMaxRecordPayload). */
constexpr uint32_t kMaxFramePayload = 64u << 20;

/** Frame types of the coordinator/node conversation. */
enum class MsgType : uint16_t {
    Hello = 1,      ///< node -> coord: protocol version + node name
    HelloAck,       ///< coord -> node: node id + campaign config
    LeaseRequest,   ///< node -> coord: give me work
    LeaseGrant,     ///< coord -> node: slot range + seed batch (or done)
    LeaseResult,    ///< node -> coord: everything one lease produced
    ResultAck,      ///< coord -> node: accepted/stale + dedup tallies
    Bye,            ///< node -> coord: graceful goodbye
    Error,          ///< either way: human-readable rejection, then close
};

/** One received frame. */
struct Frame
{
    MsgType type = MsgType::Error;
    std::vector<uint8_t> payload;
};

/** Outcome of one recvFrame(). */
enum class RecvStatus {
    Ok,
    Eof,          ///< clean close before any header byte
    Malformed,    ///< torn frame / bad magic / oversized len / bad CRC
    VersionSkew,  ///< well-formed header from an incompatible peer
};

/**
 * Frame a payload and write it to `fd`. `bytes` (optional) accumulates
 * wire bytes for the fleet.bytes_tx counter. False when the peer is
 * gone (short write).
 */
bool sendFrame(int fd, MsgType type, const std::vector<uint8_t> &payload,
               uint64_t *bytes = nullptr);

/**
 * Read one frame. On anything but Ok the connection is unusable (the
 * stream position is unknown) and must be closed; `err` (optional)
 * receives a one-line diagnosis.
 */
RecvStatus recvFrame(int fd, Frame *out, uint64_t *bytes = nullptr,
                     std::string *err = nullptr);

/**
 * Bounds-checked payload cursor. Unlike data::PayloadReader (whose
 * overrun is an assertion, appropriate for CRC-verified shard files we
 * wrote ourselves), an overrun here just trips ok() — a peer that
 * framed garbage gets its connection dropped, not our process.
 */
class WireReader
{
  public:
    WireReader(const uint8_t *data, size_t len) : data_(data), len_(len) {}
    explicit WireReader(const std::vector<uint8_t> &payload)
        : WireReader(payload.data(), payload.size())
    {
    }

    uint8_t u8();
    uint16_t u16();
    uint32_t u32();
    uint64_t u64();
    std::string str();

    bool ok() const { return ok_; }
    size_t remaining() const { return len_ - pos_; }

  private:
    const void *take(size_t len);

    const uint8_t *data_ = nullptr;
    size_t len_ = 0;
    size_t pos_ = 0;
    bool ok_ = true;
};

/** @name Message payloads
 * Each message is a plain struct with encode() -> payload bytes and
 * decode(payload) -> false on structural garbage. */
/** @{ */

struct HelloMsg
{
    uint32_t wire_version = kWireVersion;
    std::string node_name;

    std::vector<uint8_t> encode() const;
    bool decode(const std::vector<uint8_t> &payload);
};

/** The campaign config a node needs to mirror the coordinator. */
struct HelloAckMsg
{
    uint32_t node_id = 0;
    uint64_t campaign_seed = 1;
    uint64_t budget = 0;
    uint64_t checkpoint_every = 0;
    uint8_t thompson = 0;        ///< node lease policy: 0 static
    uint8_t covmap = 1;          ///< nodes profile + push cov deltas
    uint8_t harvest = 0;         ///< nodes harvest + push shards
    uint32_t seed_corpus_size = 40;  ///< generated seeds, empty batch
    uint32_t lease_gen_seeds = 8;    ///< generated seeds atop a batch
    uint64_t kernel_seed = 2024;
    std::string kernel_version;
    uint32_t kernel_evolution = 0;
    uint64_t kernel_fingerprint = 0;

    std::vector<uint8_t> encode() const;
    bool decode(const std::vector<uint8_t> &payload);
};

struct LeaseGrantMsg
{
    uint8_t done = 0;     ///< campaign drained: disconnect
    uint64_t lease_id = 0;
    uint64_t begin = 0;
    uint64_t count = 0;   ///< 0 + !done: nothing now, retry shortly
    uint64_t node_seed = 0;
    /** Seed batch: recent fleet-corpus programs (formatProg texts). */
    std::vector<std::string> batch;

    std::vector<uint8_t> encode() const;
    bool decode(const std::vector<uint8_t> &payload);
};

/** One new-coverage program with its observed coverage sets. */
struct WireProgram
{
    std::string text;                 ///< formatProg rendering
    std::vector<uint32_t> blocks;     ///< covered blocks (deduped)
    std::vector<uint64_t> edges;      ///< covered packed edge keys
};

/** One crash observation (coordinator dedups by bug index). */
struct WireCrash
{
    uint32_t bug_index = 0;
    uint64_t slot = 0;                ///< global virtual-time slot
    std::string trigger;              ///< formatProg rendering
};

/** One posterior arm's pull/win deltas. */
struct WireArm
{
    uint32_t arm = 0;
    uint64_t pulls = 0;
    uint64_t wins = 0;

    bool operator==(const WireArm &) const = default;
};

/** Everything one lease produced, pushed as a single atomic message. */
struct LeaseResultMsg
{
    uint64_t lease_id = 0;
    uint64_t execs = 0;
    std::vector<WireProgram> programs;
    std::vector<WireCrash> crashes;

    /** Covmap hit deltas on the lease grid (sparse index/delta). */
    bool have_cov = false;
    std::vector<std::pair<uint32_t, uint64_t>> block_deltas;
    std::vector<std::pair<uint32_t, uint64_t>> edge_deltas;
    uint64_t stray_edges = 0;

    /** Policy posterior deltas (per-arm pulls/wins of this lease). */
    bool have_policy = false;
    std::string policy_name;
    double pmm_share = 0.0;
    std::vector<WireArm> arms;

    /** Harvested training shard bytes (content-addressed at receipt). */
    bool have_shard = false;
    std::vector<uint8_t> shard;

    std::vector<uint8_t> encode() const;
    bool decode(const std::vector<uint8_t> &payload);
};

struct ResultAckMsg
{
    uint8_t accepted = 0;  ///< 0: stale lease, result dropped
    uint64_t new_programs = 0;
    uint64_t new_crashes = 0;

    std::vector<uint8_t> encode() const;
    bool decode(const std::vector<uint8_t> &payload);
};

struct ErrorMsg
{
    std::string message;

    std::vector<uint8_t> encode() const;
    bool decode(const std::vector<uint8_t> &payload);
};

/** @} */

}  // namespace sp::fleet

#endif  // SP_FLEET_WIRE_H
