#include "net/frame.h"

#include <cstring>

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
    case MsgType::kResyncPull:
      return "resync_pull";
    case MsgType::kResyncChunk:
      return "resync_chunk";
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

void WireWriter::U16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v));
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::U32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void WireWriter::U64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void WireWriter::F64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Str(const std::string& s) {
  U32(static_cast<std::uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

bool WireReader::Need(std::size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t WireReader::U8() {
  if (!Need(1)) return 0;
  return data_[pos_++];
}

std::uint16_t WireReader::U16() {
  if (!Need(2)) return 0;
  const std::uint16_t v = GetU16(data_ + pos_);
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::U32() {
  if (!Need(4)) return 0;
  const std::uint32_t v = GetU32(data_ + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::U64() {
  if (!Need(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = v << 8 | data_[pos_ + static_cast<std::size_t>(i)];
  }
  pos_ += 8;
  return v;
}

double WireReader::F64() {
  const std::uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::Str() {
  const std::uint32_t len = U32();
  if (!Need(len)) return std::string();
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

}  // namespace apollo::net
