#include "net/frame.h"

#include "pubsub/wal_format.h"

namespace apollo::net {

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello:
      return "hello";
    case MsgType::kHelloAck:
      return "hello_ack";
    case MsgType::kPing:
      return "ping";
    case MsgType::kPong:
      return "pong";
    case MsgType::kSubscribe:
      return "subscribe";
    case MsgType::kSubscribeAck:
      return "subscribe_ack";
    case MsgType::kDeliver:
      return "deliver";
    case MsgType::kFetchWindow:
      return "fetch_window";
    case MsgType::kWindow:
      return "window";
    case MsgType::kQuery:
      return "query";
    case MsgType::kResult:
      return "result";
    case MsgType::kListTopics:
      return "list_topics";
    case MsgType::kTopicList:
      return "topic_list";
    case MsgType::kMetrics:
      return "metrics";
    case MsgType::kMetricsText:
      return "metrics_text";
    case MsgType::kError:
      return "error";
    case MsgType::kPublishBatch:
      return "publish_batch";
    case MsgType::kPublishBatchAck:
      return "publish_batch_ack";
    case MsgType::kHeartbeat:
      return "heartbeat";
    case MsgType::kHeartbeatAck:
      return "heartbeat_ack";
    case MsgType::kGetClusterMap:
      return "get_cluster_map";
    case MsgType::kClusterMap:
      return "cluster_map";
    case MsgType::kReplicate:
      return "replicate";
    case MsgType::kReplicateAck:
      return "replicate_ack";
    case MsgType::kCQRegister:
      return "cq_register";
    case MsgType::kCQRegisterAck:
      return "cq_register_ack";
    case MsgType::kCQCancel:
      return "cq_cancel";
    case MsgType::kCQCancelAck:
      return "cq_cancel_ack";
    case MsgType::kCQUpdate:
      return "cq_update";
  }
  return "unknown";
}

namespace {

void PutU16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void PutU32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint16_t GetU16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(in[0]) |
         static_cast<std::uint16_t>(in[1]) << 8;
}

std::uint32_t GetU32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

}  // namespace

std::size_t EncodeFrame(std::vector<std::uint8_t>& out, MsgType type,
                        std::uint32_t request_id,
                        const std::vector<std::uint8_t>& payload,
                        std::uint16_t flags) {
  std::uint8_t header[kHeaderSize];
  PutU32(header, kMagic);
  header[4] = kProtocolVersion;
  header[5] = static_cast<std::uint8_t>(type);
  PutU16(header + 6, flags);
  PutU32(header + 8, static_cast<std::uint32_t>(payload.size()));
  PutU32(header + 12, request_id);
  std::uint32_t crc = wal::Crc32c(header, 16);
  crc = wal::Crc32c(payload.data(), payload.size(), crc);
  PutU32(header + 16, crc);
  out.insert(out.end(), header, header + kHeaderSize);
  out.insert(out.end(), payload.begin(), payload.end());
  return kHeaderSize + payload.size();
}

bool FrameParser::Fail(const std::string& reason) {
  error_ = reason;
  buffer_.clear();
  return false;
}

bool FrameParser::Feed(const std::uint8_t* data, std::size_t len) {
  if (!ok()) return false;
  buffer_.insert(buffer_.end(), data, data + len);
  std::size_t pos = 0;
  while (buffer_.size() - pos >= kHeaderSize) {
    const std::uint8_t* header = buffer_.data() + pos;
    if (GetU32(header) != kMagic) return Fail("bad magic");
    if (header[4] != kProtocolVersion) return Fail("unsupported version");
    const std::uint32_t length = GetU32(header + 8);
    if (length > kMaxFrameLen) return Fail("oversized frame length");
    if (buffer_.size() - pos < kHeaderSize + length) break;  // partial frame
    std::uint32_t crc = wal::Crc32c(header, 16);
    crc = wal::Crc32c(header + kHeaderSize, length, crc);
    if (crc != GetU32(header + 16)) return Fail("frame CRC mismatch");
    Frame frame;
    frame.type = static_cast<MsgType>(header[5]);
    frame.flags = GetU16(header + 6);
    frame.request_id = GetU32(header + 12);
    frame.payload.assign(header + kHeaderSize,
                         header + kHeaderSize + length);
    ready_.push_back(std::move(frame));
    pos += kHeaderSize + length;
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(pos));
  return true;
}

bool FrameParser::Next(Frame& frame) {
  if (ready_.empty()) return false;
  frame = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

void WireWriter::Str(const std::string& s) {
  U32(static_cast<std::uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

std::string WireReader::Str() {
  const std::uint32_t len = U32();
  if (!Need(len)) return std::string();
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

}  // namespace apollo::net
