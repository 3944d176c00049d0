// Wire framing for Apollo's network fabric.
//
// Every message on a fabric connection is one length-prefixed, CRC32C-
// checksummed frame (all integers little-endian, same byte conventions as
// pubsub/wal_format):
//
//   offset  field
//   0       u32 magic       "APLO" (0x4F4C5041)
//   4       u8  version     protocol version (currently 1)
//   5       u8  type        MsgType
//   6       u16 flags       per-type bits (e.g. kFlagPartial on kQuery)
//   8       u32 length      payload byte count (<= kMaxFrameLen)
//   12      u32 request_id  request/response correlation (0 = push)
//   16      u32 crc         CRC32C(header[0..15]) chained over payload —
//                           one checksum validates header and payload
//   20      payload[length]
//
// FrameParser reassembles frames from an arbitrary byte stream: it
// tolerates frames split across reads and rejects — with a permanent error
// state, since a byte stream cannot resynchronize — bad magic, unknown
// versions, oversized lengths, and CRC mismatches.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

namespace apollo::net {

inline constexpr std::uint32_t kMagic = 0x4F4C5041u;  // "APLO"
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderSize = 20;
// Upper bound on a frame payload: rejects absurd lengths produced by
// corruption (or a hostile peer) before they can drive a huge allocation.
inline constexpr std::uint32_t kMaxFrameLen = 8u << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,    // client -> server: version handshake
  kHelloAck,     // server -> client
  kPing,         // either direction; resets the idle timer
  kPong,
  // 5, 6, 21, 22, 29 and 30 belong to removed message types and must never
  // be reused: every remaining type keeps its wire byte, so a peer built
  // before the removal still dispatches each frame to the right handler.
  kSubscribe = 7,  // client -> server: start pushed deliveries for a topic
  kSubscribeAck,
  kDeliver,      // server -> client: unsolicited entries (request_id 0)
  kFetchWindow,  // client -> server: cursor read of a topic's window
  kWindow,
  kQuery,        // client -> server: AQE query text (EXPLAIN supported)
  kResult,
  kListTopics,   // client -> server: topics served by this daemon
  kTopicList,
  kMetrics,      // client -> server: Prometheus text exposition scrape
  kMetricsText,
  kError,        // server -> client: request failed
  kPublishBatch,     // client -> server: N samples, one frame CRC32C (the
                     // only ingest message; a single publish is a batch
                     // of one)
  kPublishBatchAck,  // server -> client: cumulative ack + error bitmap
  kHeartbeat = 23,   // daemon -> daemon: membership probe (name, gen, state)
  kHeartbeatAck,     // daemon -> daemon: prober learns the peer's state
  kGetClusterMap,    // client -> server: request the current cluster map
  kClusterMap,       // server -> client: map reply, or push on change
                     // (request_id 0)
  kReplicate,        // primary -> secondary: mirror a publish run
  kReplicateAck,     // secondary -> primary: applied, or lag/ahead verdict
  kCQRegister = 31,  // client -> server: register a continuous query
  kCQRegisterAck,    // server -> client: cq id + current epoch/seq
  kCQCancel,         // client -> server: cancel a continuous query
  kCQCancelAck,      // server -> client
  kCQUpdate,         // server -> client: incremental result push
                     // (request_id 0)
};

const char* MsgTypeName(MsgType type);

// kQuery flag: execute only the UNION branches whose topics this daemon
// serves instead of failing on the first unknown topic (scatter-gather).
inline constexpr std::uint16_t kFlagPartial = 1u << 0;

// kPublishBatch flag: this batch was forwarded by another cluster node.
// The receiver must serve it as the topic's primary or reject it — never
// forward again (caps any routing disagreement between two nodes' maps at
// one hop instead of a forwarding loop).
inline constexpr std::uint16_t kFlagForwarded = 1u << 1;

struct Frame {
  MsgType type = MsgType::kError;
  std::uint16_t flags = 0;
  std::uint32_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

// Appends one encoded frame to `out`. Returns the encoded size.
std::size_t EncodeFrame(std::vector<std::uint8_t>& out, MsgType type,
                        std::uint32_t request_id,
                        const std::vector<std::uint8_t>& payload,
                        std::uint16_t flags = 0);

// Incremental frame reassembly over a byte stream.
class FrameParser {
 public:
  // Feeds `len` raw bytes. Complete frames become available via Next().
  // Returns false once the stream is corrupt (error() non-empty); further
  // bytes are ignored — the connection must be torn down.
  bool Feed(const std::uint8_t* data, std::size_t len);

  // Pops the next complete frame into `frame`; false when none pending.
  bool Next(Frame& frame);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  // Bytes buffered waiting for the rest of a frame.
  std::size_t PendingBytes() const { return buffer_.size(); }

 private:
  bool Fail(const std::string& reason);

  std::vector<std::uint8_t> buffer_;
  std::deque<Frame> ready_;
  std::string error_;
};

// --- payload (de)serialization primitives ---

// `v` with its bytes in wire (little-endian) order, or back: a no-op on a
// little-endian host.
template <typename U>
constexpr U WireOrder(U v) {
  if constexpr (std::endian::native == std::endian::little || sizeof(U) == 1) {
    return v;
  } else if constexpr (sizeof(U) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(U) == 4) {
    return __builtin_bswap32(v);
  } else {
    return __builtin_bswap64(v);
  }
}

// Little-endian appenders; strings are u32-length-prefixed. Each
// fixed-width field is copied in whole, inline.
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void U8(std::uint8_t v) { out_.push_back(v); }
  void U16(std::uint16_t v) { Put(v); }
  void U32(std::uint32_t v) { Put(v); }
  void U64(std::uint64_t v) { Put(v); }
  void I64(std::int64_t v) { Put(static_cast<std::uint64_t>(v)); }
  void F64(double v) { Put(std::bit_cast<std::uint64_t>(v)); }
  void Str(const std::string& s);

 private:
  template <typename U>
  void Put(U v) {
    v = WireOrder(v);
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(v));
    std::memcpy(out_.data() + at, &v, sizeof(v));
  }

  std::vector<std::uint8_t>& out_;
};

// Bounds-checked reader: any out-of-range read latches ok()=false and
// yields zero values, so decoders can parse straight-line and check once.
// Each fixed-width field is copied out whole, inline.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& payload)
      : WireReader(payload.data(), payload.size()) {}

  std::uint8_t U8() { return Get<std::uint8_t>(); }
  std::uint16_t U16() { return Get<std::uint16_t>(); }
  std::uint32_t U32() { return Get<std::uint32_t>(); }
  std::uint64_t U64() { return Get<std::uint64_t>(); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64() { return std::bit_cast<double>(U64()); }
  std::string Str();

  bool ok() const { return ok_; }
  // True when the payload was consumed exactly (decoders use ok() &&
  // AtEnd() to reject trailing garbage).
  bool AtEnd() const { return pos_ == size_; }

 private:
  bool Need(std::size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  template <typename U>
  U Get() {
    if (!Need(sizeof(U))) return 0;
    U v;
    std::memcpy(&v, data_ + pos_, sizeof(v));
    pos_ += sizeof(v);
    return WireOrder(v);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace apollo::net
