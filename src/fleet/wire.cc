#include "fleet/wire.h"

#include <bit>
#include <cstring>

#include "obs/netio.h"

namespace sp::fleet {

namespace {

constexpr size_t kHeaderBytes = 16;

/** crc over (type, len, payload) — the magic/version prefix is framing,
 *  not content, exactly like data::FrameWriter's (kind, len, payload). */
uint32_t
frameCrc(uint16_t type, uint32_t len, const uint8_t *payload)
{
    uint32_t crc = data::crc32(&type, sizeof(type));
    crc = data::crc32(&len, sizeof(len), crc);
    return data::crc32(payload, len, crc);
}

void
put16(uint8_t *at, uint16_t v)
{
    std::memcpy(at, &v, sizeof(v));
}

void
put32(uint8_t *at, uint32_t v)
{
    std::memcpy(at, &v, sizeof(v));
}

uint16_t
get16(const uint8_t *at)
{
    uint16_t v;
    std::memcpy(&v, at, sizeof(v));
    return v;
}

uint32_t
get32(const uint8_t *at)
{
    uint32_t v;
    std::memcpy(&v, at, sizeof(v));
    return v;
}

}  // namespace

bool
sendFrame(int fd, MsgType type, const std::vector<uint8_t> &payload,
          uint64_t *bytes)
{
    // Header and payload go out in one write: as two sends on a socket
    // without TCP_NODELAY, Nagle would hold the payload until the
    // peer's delayed ACK of the header.
    const auto len = static_cast<uint32_t>(payload.size());
    std::vector<uint8_t> frame(kHeaderBytes + len);
    put32(frame.data(), kWireMagic);
    put16(frame.data() + 4, kWireVersion);
    put16(frame.data() + 6, static_cast<uint16_t>(type));
    put32(frame.data() + 8, len);
    put32(frame.data() + 12,
          frameCrc(static_cast<uint16_t>(type), len, payload.data()));
    if (len != 0)
        std::memcpy(frame.data() + kHeaderBytes, payload.data(), len);
    if (!obs::sendAll(fd, frame.data(), frame.size()))
        return false;
    if (bytes != nullptr)
        *bytes += frame.size();
    return true;
}

RecvStatus
recvFrame(int fd, Frame *out, uint64_t *bytes, std::string *err)
{
    const auto fail = [err](RecvStatus status, const char *what) {
        if (err != nullptr)
            *err = what;
        return status;
    };

    uint8_t header[kHeaderBytes];
    const size_t got = obs::recvAll(fd, header, sizeof(header));
    if (got == 0)
        return fail(RecvStatus::Eof, "eof");
    if (got < sizeof(header))
        return fail(RecvStatus::Malformed, "torn header");
    if (get32(header) != kWireMagic)
        return fail(RecvStatus::Malformed, "bad magic");
    if (get16(header + 4) != kWireVersion)
        return fail(RecvStatus::VersionSkew, "frame version skew");
    const uint16_t type = get16(header + 6);
    const uint32_t len = get32(header + 8);
    const uint32_t crc = get32(header + 12);
    if (len > kMaxFramePayload)
        return fail(RecvStatus::Malformed, "oversized payload length");

    out->type = static_cast<MsgType>(type);
    out->payload.resize(len);
    if (len != 0 &&
        obs::recvAll(fd, out->payload.data(), len) != len)
        return fail(RecvStatus::Malformed, "torn payload");
    if (frameCrc(type, len, out->payload.data()) != crc)
        return fail(RecvStatus::Malformed, "crc mismatch");
    if (bytes != nullptr)
        *bytes += kHeaderBytes + len;
    return RecvStatus::Ok;
}

const void *
WireReader::take(size_t len)
{
    if (!ok_ || len > len_ - pos_) {
        ok_ = false;
        return nullptr;
    }
    const void *at = data_ + pos_;
    pos_ += len;
    return at;
}

uint8_t
WireReader::u8()
{
    const void *at = take(1);
    return at == nullptr ? 0 : *static_cast<const uint8_t *>(at);
}

uint16_t
WireReader::u16()
{
    uint16_t v = 0;
    if (const void *at = take(sizeof(v)))
        std::memcpy(&v, at, sizeof(v));
    return v;
}

uint32_t
WireReader::u32()
{
    uint32_t v = 0;
    if (const void *at = take(sizeof(v)))
        std::memcpy(&v, at, sizeof(v));
    return v;
}

uint64_t
WireReader::u64()
{
    uint64_t v = 0;
    if (const void *at = take(sizeof(v)))
        std::memcpy(&v, at, sizeof(v));
    return v;
}

std::string
WireReader::str()
{
    const uint32_t len = u32();
    const void *at = take(len);
    return at == nullptr
               ? std::string()
               : std::string(static_cast<const char *>(at), len);
}

std::vector<uint8_t>
HelloMsg::encode() const
{
    data::PayloadWriter w;
    w.u32(wire_version);
    w.str(node_name);
    return w.bytes();
}

bool
HelloMsg::decode(const std::vector<uint8_t> &payload)
{
    WireReader r(payload);
    wire_version = r.u32();
    node_name = r.str();
    return r.ok() && r.remaining() == 0;
}

std::vector<uint8_t>
HelloAckMsg::encode() const
{
    data::PayloadWriter w;
    w.u32(node_id);
    w.u64(campaign_seed);
    w.u64(budget);
    w.u64(checkpoint_every);
    w.u8(thompson);
    w.u8(covmap);
    w.u8(harvest);
    w.u32(seed_corpus_size);
    w.u32(lease_gen_seeds);
    w.u64(kernel_seed);
    w.str(kernel_version);
    w.u32(kernel_evolution);
    w.u64(kernel_fingerprint);
    return w.bytes();
}

bool
HelloAckMsg::decode(const std::vector<uint8_t> &payload)
{
    WireReader r(payload);
    node_id = r.u32();
    campaign_seed = r.u64();
    budget = r.u64();
    checkpoint_every = r.u64();
    thompson = r.u8();
    covmap = r.u8();
    harvest = r.u8();
    seed_corpus_size = r.u32();
    lease_gen_seeds = r.u32();
    kernel_seed = r.u64();
    kernel_version = r.str();
    kernel_evolution = r.u32();
    kernel_fingerprint = r.u64();
    return r.ok() && r.remaining() == 0;
}

std::vector<uint8_t>
LeaseGrantMsg::encode() const
{
    data::PayloadWriter w;
    w.u8(done);
    w.u64(lease_id);
    w.u64(begin);
    w.u64(count);
    w.u64(node_seed);
    w.u32(static_cast<uint32_t>(batch.size()));
    for (const auto &text : batch)
        w.str(text);
    return w.bytes();
}

bool
LeaseGrantMsg::decode(const std::vector<uint8_t> &payload)
{
    WireReader r(payload);
    done = r.u8();
    lease_id = r.u64();
    begin = r.u64();
    count = r.u64();
    node_seed = r.u64();
    const uint32_t n = r.u32();
    batch.clear();
    for (uint32_t i = 0; i < n && r.ok(); ++i)
        batch.push_back(r.str());
    return r.ok() && r.remaining() == 0;
}

std::vector<uint8_t>
LeaseResultMsg::encode() const
{
    data::PayloadWriter w;
    w.u64(lease_id);
    w.u64(execs);
    w.u32(static_cast<uint32_t>(programs.size()));
    for (const auto &program : programs) {
        w.str(program.text);
        w.u32(static_cast<uint32_t>(program.blocks.size()));
        for (const uint32_t block : program.blocks)
            w.u32(block);
        w.u32(static_cast<uint32_t>(program.edges.size()));
        for (const uint64_t edge : program.edges)
            w.u64(edge);
    }
    w.u32(static_cast<uint32_t>(crashes.size()));
    for (const auto &crash : crashes) {
        w.u32(crash.bug_index);
        w.u64(crash.slot);
        w.str(crash.trigger);
    }
    w.u8(have_cov ? 1 : 0);
    if (have_cov) {
        w.u32(static_cast<uint32_t>(block_deltas.size()));
        for (const auto &[index, delta] : block_deltas) {
            w.u32(index);
            w.u64(delta);
        }
        w.u32(static_cast<uint32_t>(edge_deltas.size()));
        for (const auto &[index, delta] : edge_deltas) {
            w.u32(index);
            w.u64(delta);
        }
        w.u64(stray_edges);
    }
    w.u8(have_policy ? 1 : 0);
    if (have_policy) {
        w.str(policy_name);
        w.u64(std::bit_cast<uint64_t>(pmm_share));
        w.u32(static_cast<uint32_t>(arms.size()));
        for (const auto &arm : arms) {
            w.u32(arm.arm);
            w.u64(arm.pulls);
            w.u64(arm.wins);
        }
    }
    w.u8(have_shard ? 1 : 0);
    if (have_shard) {
        w.u32(static_cast<uint32_t>(shard.size()));
        for (const uint8_t byte : shard)
            w.u8(byte);
    }
    return w.bytes();
}

bool
LeaseResultMsg::decode(const std::vector<uint8_t> &payload)
{
    WireReader r(payload);
    lease_id = r.u64();
    execs = r.u64();
    const uint32_t nprogs = r.u32();
    programs.clear();
    for (uint32_t i = 0; i < nprogs && r.ok(); ++i) {
        WireProgram program;
        program.text = r.str();
        const uint32_t nblocks = r.u32();
        for (uint32_t j = 0; j < nblocks && r.ok(); ++j)
            program.blocks.push_back(r.u32());
        const uint32_t nedges = r.u32();
        for (uint32_t j = 0; j < nedges && r.ok(); ++j)
            program.edges.push_back(r.u64());
        programs.push_back(std::move(program));
    }
    const uint32_t ncrashes = r.u32();
    crashes.clear();
    for (uint32_t i = 0; i < ncrashes && r.ok(); ++i) {
        WireCrash crash;
        crash.bug_index = r.u32();
        crash.slot = r.u64();
        crash.trigger = r.str();
        crashes.push_back(std::move(crash));
    }
    have_cov = r.u8() != 0;
    block_deltas.clear();
    edge_deltas.clear();
    stray_edges = 0;
    if (have_cov) {
        const uint32_t nblocks = r.u32();
        for (uint32_t i = 0; i < nblocks && r.ok(); ++i) {
            const uint32_t index = r.u32();
            const uint64_t delta = r.u64();
            block_deltas.emplace_back(index, delta);
        }
        const uint32_t nedges = r.u32();
        for (uint32_t i = 0; i < nedges && r.ok(); ++i) {
            const uint32_t index = r.u32();
            const uint64_t delta = r.u64();
            edge_deltas.emplace_back(index, delta);
        }
        stray_edges = r.u64();
    }
    have_policy = r.u8() != 0;
    policy_name.clear();
    pmm_share = 0.0;
    arms.clear();
    if (have_policy) {
        policy_name = r.str();
        pmm_share = std::bit_cast<double>(r.u64());
        const uint32_t narms = r.u32();
        for (uint32_t i = 0; i < narms && r.ok(); ++i) {
            WireArm arm;
            arm.arm = r.u32();
            arm.pulls = r.u64();
            arm.wins = r.u64();
            arms.push_back(arm);
        }
    }
    have_shard = r.u8() != 0;
    shard.clear();
    if (have_shard) {
        const uint32_t len = r.u32();
        if (len > r.remaining()) {
            return false;
        }
        for (uint32_t i = 0; i < len; ++i)
            shard.push_back(r.u8());
    }
    return r.ok() && r.remaining() == 0;
}

std::vector<uint8_t>
ResultAckMsg::encode() const
{
    data::PayloadWriter w;
    w.u8(accepted);
    w.u64(new_programs);
    w.u64(new_crashes);
    return w.bytes();
}

bool
ResultAckMsg::decode(const std::vector<uint8_t> &payload)
{
    WireReader r(payload);
    accepted = r.u8();
    new_programs = r.u64();
    new_crashes = r.u64();
    return r.ok() && r.remaining() == 0;
}

std::vector<uint8_t>
ErrorMsg::encode() const
{
    data::PayloadWriter w;
    w.str(message);
    return w.bytes();
}

bool
ErrorMsg::decode(const std::vector<uint8_t> &payload)
{
    WireReader r(payload);
    message = r.str();
    return r.ok() && r.remaining() == 0;
}

}  // namespace sp::fleet
