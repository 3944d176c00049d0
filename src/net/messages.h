// Typed messages carried in wire frames (see net/frame.h for the framing).
//
// Every message has Encode(payload_out) and a static Decode(payload) that
// returns false on malformed input (short payload, trailing garbage).
// Encodings are versioned by the frame header's protocol version; fields
// are appended LE with u32-length-prefixed strings (WireWriter/WireReader).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aqe/executor.h"
#include "cluster/membership.h"
#include "net/frame.h"
#include "pubsub/broker.h"
#include "pubsub/stream.h"

namespace apollo::net {

using Payload = std::vector<std::uint8_t>;

struct HelloMsg {
  std::uint32_t protocol_version = kProtocolVersion;
  std::string client_name;
  // Admission-control identity. Appended after the original fields and
  // decoded tolerantly (absent on old clients -> empty -> the daemon's
  // default tenant), so v1 handshakes stay wire-compatible.
  std::string tenant;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, HelloMsg& msg);
};

struct HelloAckMsg {
  std::uint32_t protocol_version = kProtocolVersion;
  std::string server_name;
  std::uint64_t topic_count = 0;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, HelloAckMsg& msg);
};

// Upper bound on samples in one kPublishBatch frame. 25 wire bytes per
// sample keeps a full batch far below kMaxFrameLen while still amortizing
// the per-frame syscall + ack round trip ~10^4 times.
inline constexpr std::uint32_t kMaxBatchSamples = 64 * 1024;

// Batched publish, the only way a sample reaches a daemon over the wire (a
// single publish is a batch of one). Samples are grouped into runs of
// consecutive same-topic samples (order-preserving), so the daemon
// resolves each topic — and takes its stream lock — once per run instead
// of once per sample. The frame header's CRC32C covers the whole batch;
// there is no per-sample checksum. Entry ids are not carried (the broker
// assigns them on append).
struct PublishBatchMsg {
  struct Run {
    std::string topic;
    std::vector<TelemetryStream::Entry> entries;  // id fields ignored
  };
  std::vector<Run> runs;

  std::size_t SampleCount() const;
  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, PublishBatchMsg& msg);
};

// Cumulative ack: one reply for the whole batch. Bit i of `error_bits`
// (LSB-first within each byte, indexing samples in batch order across runs)
// set means sample i failed; `first_error` describes the first failure so
// the client can surface a meaningful Error per rejected sample.
struct PublishBatchAckMsg {
  std::uint32_t count = 0;          // samples covered by this ack
  std::uint64_t last_entry_id = 0;  // id of the last accepted sample
  std::uint32_t error_count = 0;
  std::vector<std::uint8_t> error_bits;  // ceil(count / 8) bytes
  ErrorCode first_error_code = ErrorCode::kInternal;
  std::string first_error;

  void Resize(std::uint32_t n) {
    count = n;
    error_bits.assign((n + 7) / 8, 0);
  }
  void MarkFailed(std::uint32_t i) {
    error_bits[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    ++error_count;
  }
  bool Failed(std::uint32_t i) const {
    return (error_bits[i / 8] >> (i % 8)) & 1u;
  }

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, PublishBatchAckMsg& msg);
};

// cursor == kCursorTail starts the subscription at the stream's next id
// (only future entries are delivered).
inline constexpr std::uint64_t kCursorTail = UINT64_MAX;

struct SubscribeMsg {
  std::string topic;
  std::uint64_t cursor = kCursorTail;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, SubscribeMsg& msg);
};

struct SubscribeAckMsg {
  std::uint64_t subscription_id = 0;
  std::uint64_t start_cursor = 0;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, SubscribeAckMsg& msg);
};

struct DeliverMsg {
  std::uint64_t subscription_id = 0;
  std::string topic;
  std::vector<TelemetryStream::Entry> entries;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, DeliverMsg& msg);
};

struct FetchWindowMsg {
  std::string topic;
  std::uint64_t cursor = 0;
  std::uint64_t max_entries = UINT64_MAX;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, FetchWindowMsg& msg);
};

struct WindowMsg {
  std::uint64_t next_cursor = 0;
  std::vector<TelemetryStream::Entry> entries;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, WindowMsg& msg);
};

// The most entries a WindowMsg encodes in at most `payload_bytes` bytes.
std::size_t WindowEntriesFit(std::size_t payload_bytes);

struct QueryMsg {
  std::string sql;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, QueryMsg& msg);
};

struct ResultMsg {
  aqe::ResultSet result;
  // Tables this daemon actually executed (partial queries skip branches
  // whose topics live elsewhere; the scatter-gather merge checks coverage).
  std::vector<std::string> served_tables;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, ResultMsg& msg);
};

struct TopicListMsg {
  std::vector<TopicInfo> topics;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, TopicListMsg& msg);
};

struct MetricsTextMsg {
  std::string text;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, MetricsTextMsg& msg);
};

// --- cluster fabric messages (heartbeat, map, replicate) ---

// Membership probe (kHeartbeat) and its reply (kHeartbeatAck): the same
// fields and bytes both ways. The probe carries the sender's identity so
// the receiving side learns about the prober passively (an inbound
// heartbeat is as good an aliveness proof as an ack), which is what lets a
// rejoining node reappear in its peers' maps within one probe interval;
// the ack tells the prober the peer's state.
struct HeartbeatMsg {
  std::string sender;
  std::uint64_t generation = 0;  // sender's process-start stamp
  std::uint8_t state = 0;        // cluster::MemberState of the sender
  std::uint64_t map_version = 0;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, HeartbeatMsg& msg);
};

// Reply to kGetClusterMap and the push on membership change
// (request_id 0). Clients keep the highest version seen per source node.
struct ClusterMapMsg {
  cluster::ClusterMap map;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, ClusterMapMsg& msg);
};

// Primary -> secondary mirror of one publish run. `expected_base` is the
// primary's stream NextId before it appends: the secondary applies the
// entries only when its own NextId matches, so both streams assign the
// same ids and a divergent replica is detected on the spot instead of
// silently drifting.
struct ReplicateMsg {
  std::string origin;  // primary's node name
  std::string topic;
  std::uint64_t expected_base = 0;
  std::vector<TelemetryStream::Entry> entries;  // id fields ignored

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, ReplicateMsg& msg);
};

struct ReplicateAckMsg {
  enum class Verdict : std::uint8_t {
    kApplied = 0,  // entries appended at expected_base
    kBehind = 1,   // replica's NextId < expected_base: it missed data and
                   // will resync; the primary still counts the write as
                   // unreplicated here
    kAhead = 2,    // replica's NextId > expected_base: the PRIMARY is the
                   // stale one (it just rejoined); it must abort the
                   // append and resync before serving writes
    kRefused = 3,  // the replica could not apply the entries
  };
  Verdict verdict = Verdict::kRefused;
  std::uint64_t next_id = 0;  // replica's NextId after handling

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, ReplicateAckMsg& msg);
};

// --- continuous-query messages (see src/cq) ---

// Registers a SUBSCRIBE query. `name` is the client's stable handle for
// this CQ within its tenant — the resume key after a reconnect. A fresh
// registration sends resume_epoch 0; a resuming client echoes the epoch
// and sequence number of the last kCQUpdate it received, and the daemon
// either replays the missed updates from its ring (same epoch, no
// duplicates) or bumps the epoch and restarts from a full snapshot.
struct CQRegisterMsg {
  std::string name;
  std::string sql;  // SUBSCRIBE SELECT ... [EVERY n unit]
  std::uint64_t resume_epoch = 0;
  std::uint64_t resume_seq = 0;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, CQRegisterMsg& msg);
};

struct CQRegisterAckMsg {
  std::uint64_t cq_id = 0;
  std::uint64_t epoch = 0;
  // Last sequence number already delivered (resume) or 0 (snapshot
  // follows as seq 1).
  std::uint64_t seq = 0;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, CQRegisterAckMsg& msg);
};

struct CQCancelMsg {
  std::uint64_t cq_id = 0;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, CQCancelMsg& msg);
};

struct CQCancelAckMsg {
  std::uint64_t cq_id = 0;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, CQCancelAckMsg& msg);
};

// Incremental result push (request_id 0). Carries the full materialized
// row set of the CQ at (epoch, seq) — rows are per UNION branch, so the
// set is small and self-describing; clients replace, not merge.
struct CQUpdateMsg {
  std::uint64_t cq_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  aqe::ResultSet result;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, CQUpdateMsg& msg);
};

struct ErrorMsg {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  void Encode(Payload& out) const;
  static bool Decode(const Payload& in, ErrorMsg& msg);

  Error ToError() const { return Error(code, message); }
};

}  // namespace apollo::net
