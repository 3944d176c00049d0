#include "net/messages.h"

namespace apollo::net {

namespace {

// Entry lists are capped just above what fits in kMaxFrameLen.
constexpr std::uint64_t kMaxWireEntries = 256 * 1024;

// One listed entry: u64 id, i64 timestamp, i64 sample timestamp, f64
// value, u8 provenance.
constexpr std::size_t kWireEntryBytes = 33;

// One kPublishBatch sample: i64 timestamp, i64 sample timestamp, f64
// value, u8 provenance.
constexpr std::size_t kBatchSampleBytes = 25;

void EncodeEntries(WireWriter& w,
                   const std::vector<TelemetryStream::Entry>& entries) {
  w.U32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& entry : entries) {
    w.U64(entry.id);
    w.I64(entry.timestamp);
    w.I64(entry.value.timestamp);
    w.F64(entry.value.value);
    w.U8(static_cast<std::uint8_t>(entry.value.provenance));
  }
}

// A Sample's provenance byte. Only kMeasured (0) and kPredicted (1) name
// one; any other byte makes the message malformed, so no row reaches the
// ring, the WAL or a cold block as neither measured nor predicted.
bool ReadProvenance(WireReader& r, Provenance& provenance) {
  const std::uint8_t byte = r.U8();
  provenance = static_cast<Provenance>(byte);
  return byte <= static_cast<std::uint8_t>(Provenance::kPredicted);
}

bool DecodeEntries(WireReader& r,
                   std::vector<TelemetryStream::Entry>& entries) {
  const std::uint32_t count = r.U32();
  if (count > kMaxWireEntries) return false;
  entries.clear();
  entries.reserve(count);
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    TelemetryStream::Entry entry;
    entry.id = r.U64();
    entry.timestamp = r.I64();
    entry.value.timestamp = r.I64();
    entry.value.value = r.F64();
    if (!ReadProvenance(r, entry.value.provenance)) return false;
    entries.push_back(entry);
  }
  return r.ok();
}

bool Finish(const WireReader& r) { return r.ok() && r.AtEnd(); }

void EncodeResultSet(WireWriter& w, const aqe::ResultSet& result) {
  w.U8(result.degraded ? 1 : 0);
  w.I64(result.max_staleness_ns);
  w.U32(static_cast<std::uint32_t>(result.columns.size()));
  for (const std::string& column : result.columns) w.Str(column);
  w.U32(static_cast<std::uint32_t>(result.rows.size()));
  for (const aqe::ResultRow& row : result.rows) {
    w.Str(row.source);
    w.U8(row.degraded ? 1 : 0);
    w.I64(row.staleness_ns);
    w.U32(static_cast<std::uint32_t>(row.values.size()));
    for (double v : row.values) w.F64(v);
  }
}

bool DecodeResultSet(WireReader& r, aqe::ResultSet& result) {
  result = aqe::ResultSet{};
  result.degraded = r.U8() != 0;
  result.max_staleness_ns = r.I64();
  const std::uint32_t columns = r.U32();
  if (columns > kMaxWireEntries) return false;
  for (std::uint32_t i = 0; i < columns && r.ok(); ++i) {
    result.columns.push_back(r.Str());
  }
  const std::uint32_t rows = r.U32();
  if (rows > kMaxWireEntries) return false;
  result.rows.reserve(rows);
  for (std::uint32_t i = 0; i < rows && r.ok(); ++i) {
    aqe::ResultRow row;
    row.source = r.Str();
    row.degraded = r.U8() != 0;
    row.staleness_ns = r.I64();
    const std::uint32_t values = r.U32();
    if (values > kMaxWireEntries) return false;
    row.values.reserve(values);
    for (std::uint32_t j = 0; j < values && r.ok(); ++j) {
      row.values.push_back(r.F64());
    }
    result.rows.push_back(std::move(row));
  }
  return r.ok();
}

}  // namespace

void HelloMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.U32(protocol_version);
  w.Str(client_name);
  w.Str(tenant);
}

bool HelloMsg::Decode(const Payload& in, HelloMsg& msg) {
  WireReader r(in);
  msg.protocol_version = r.U32();
  msg.client_name = r.Str();
  // Tenant was appended later; a hello without it is a pre-CQ client.
  msg.tenant = r.ok() && !r.AtEnd() ? r.Str() : std::string();
  return Finish(r);
}

void HelloAckMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.U32(protocol_version);
  w.Str(server_name);
  w.U64(topic_count);
}

bool HelloAckMsg::Decode(const Payload& in, HelloAckMsg& msg) {
  WireReader r(in);
  msg.protocol_version = r.U32();
  msg.server_name = r.Str();
  msg.topic_count = r.U64();
  return Finish(r);
}

std::size_t PublishBatchMsg::SampleCount() const {
  std::size_t n = 0;
  for (const Run& run : runs) n += run.entries.size();
  return n;
}

void PublishBatchMsg::Encode(Payload& out) const {
  // The exact size first, so the payload grows once.
  std::size_t bytes = 4;  // u32 run count
  for (const Run& run : runs) {  // u32 length, topic, u32 count, samples
    bytes += 8 + run.topic.size() + kBatchSampleBytes * run.entries.size();
  }
  out.reserve(out.size() + bytes);
  WireWriter w(out);
  w.U32(static_cast<std::uint32_t>(runs.size()));
  for (const Run& run : runs) {
    w.Str(run.topic);
    w.U32(static_cast<std::uint32_t>(run.entries.size()));
    for (const auto& entry : run.entries) {
      w.I64(entry.timestamp);
      w.I64(entry.value.timestamp);
      w.F64(entry.value.value);
      w.U8(static_cast<std::uint8_t>(entry.value.provenance));
    }
  }
}

bool PublishBatchMsg::Decode(const Payload& in, PublishBatchMsg& msg) {
  WireReader r(in);
  msg.runs.clear();
  const std::uint32_t run_count = r.U32();
  // A batch with no samples (or an empty run) is malformed, not a no-op:
  // the client never sends one, so it can only come from corruption.
  if (run_count == 0 || run_count > kMaxBatchSamples) return false;
  std::uint64_t total = 0;
  msg.runs.reserve(run_count);
  for (std::uint32_t i = 0; i < run_count && r.ok(); ++i) {
    Run run;
    run.topic = r.Str();
    const std::uint32_t count = r.U32();
    if (count == 0) return false;
    total += count;
    if (total > kMaxBatchSamples) return false;
    if (!r.ok()) return false;
    run.entries.reserve(count);
    for (std::uint32_t j = 0; j < count && r.ok(); ++j) {
      TelemetryStream::Entry entry;
      entry.timestamp = r.I64();
      entry.value.timestamp = r.I64();
      entry.value.value = r.F64();
      if (!ReadProvenance(r, entry.value.provenance)) return false;
      run.entries.push_back(entry);
    }
    msg.runs.push_back(std::move(run));
  }
  return Finish(r);
}

void PublishBatchAckMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.U32(count);
  w.U64(last_entry_id);
  w.U32(error_count);
  w.U32(static_cast<std::uint32_t>(error_bits.size()));
  for (std::uint8_t byte : error_bits) w.U8(byte);
  w.U16(static_cast<std::uint16_t>(first_error_code));
  w.Str(first_error);
}

bool PublishBatchAckMsg::Decode(const Payload& in, PublishBatchAckMsg& msg) {
  WireReader r(in);
  msg.count = r.U32();
  msg.last_entry_id = r.U64();
  msg.error_count = r.U32();
  const std::uint32_t bitmap_bytes = r.U32();
  if (msg.count > kMaxBatchSamples || msg.error_count > msg.count ||
      bitmap_bytes != (msg.count + 7) / 8) {
    return false;
  }
  msg.error_bits.clear();
  msg.error_bits.reserve(bitmap_bytes);
  for (std::uint32_t i = 0; i < bitmap_bytes && r.ok(); ++i) {
    msg.error_bits.push_back(r.U8());
  }
  msg.first_error_code = static_cast<ErrorCode>(r.U16());
  msg.first_error = r.Str();
  return Finish(r);
}

void SubscribeMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.Str(topic);
  w.U64(cursor);
}

bool SubscribeMsg::Decode(const Payload& in, SubscribeMsg& msg) {
  WireReader r(in);
  msg.topic = r.Str();
  msg.cursor = r.U64();
  return Finish(r);
}

void SubscribeAckMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.U64(subscription_id);
  w.U64(start_cursor);
}

bool SubscribeAckMsg::Decode(const Payload& in, SubscribeAckMsg& msg) {
  WireReader r(in);
  msg.subscription_id = r.U64();
  msg.start_cursor = r.U64();
  return Finish(r);
}

void DeliverMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.U64(subscription_id);
  w.Str(topic);
  EncodeEntries(w, entries);
}

bool DeliverMsg::Decode(const Payload& in, DeliverMsg& msg) {
  WireReader r(in);
  msg.subscription_id = r.U64();
  msg.topic = r.Str();
  if (!DecodeEntries(r, msg.entries)) return false;
  return Finish(r);
}

void FetchWindowMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.Str(topic);
  w.U64(cursor);
  w.U64(max_entries);
}

bool FetchWindowMsg::Decode(const Payload& in, FetchWindowMsg& msg) {
  WireReader r(in);
  msg.topic = r.Str();
  msg.cursor = r.U64();
  msg.max_entries = r.U64();
  return Finish(r);
}

void WindowMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.U64(next_cursor);
  EncodeEntries(w, entries);
}

bool WindowMsg::Decode(const Payload& in, WindowMsg& msg) {
  WireReader r(in);
  msg.next_cursor = r.U64();
  if (!DecodeEntries(r, msg.entries)) return false;
  return Finish(r);
}

std::size_t WindowEntriesFit(std::size_t payload_bytes) {
  constexpr std::size_t kFixed = 12;  // u64 next_cursor, u32 count
  return payload_bytes < kFixed ? 0
                                : (payload_bytes - kFixed) / kWireEntryBytes;
}

void QueryMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.Str(sql);
}

bool QueryMsg::Decode(const Payload& in, QueryMsg& msg) {
  WireReader r(in);
  msg.sql = r.Str();
  return Finish(r);
}

void ResultMsg::Encode(Payload& out) const {
  WireWriter w(out);
  EncodeResultSet(w, result);
  w.U32(static_cast<std::uint32_t>(served_tables.size()));
  for (const std::string& table : served_tables) w.Str(table);
}

bool ResultMsg::Decode(const Payload& in, ResultMsg& msg) {
  WireReader r(in);
  msg.served_tables.clear();
  if (!DecodeResultSet(r, msg.result)) return false;
  const std::uint32_t tables = r.U32();
  if (tables > kMaxWireEntries) return false;
  for (std::uint32_t i = 0; i < tables && r.ok(); ++i) {
    msg.served_tables.push_back(r.Str());
  }
  return Finish(r);
}

void TopicListMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.U32(static_cast<std::uint32_t>(topics.size()));
  for (const TopicInfo& info : topics) {
    w.Str(info.name);
    w.I64(info.home_node);
  }
}

bool TopicListMsg::Decode(const Payload& in, TopicListMsg& msg) {
  WireReader r(in);
  const std::uint32_t count = r.U32();
  if (count > kMaxWireEntries) return false;
  msg.topics.clear();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    TopicInfo info;
    info.name = r.Str();
    info.home_node = static_cast<NodeId>(r.I64());
    msg.topics.push_back(std::move(info));
  }
  return Finish(r);
}

void MetricsTextMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.Str(text);
}

bool MetricsTextMsg::Decode(const Payload& in, MetricsTextMsg& msg) {
  WireReader r(in);
  msg.text = r.Str();
  return Finish(r);
}

void HeartbeatMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.Str(sender);
  w.U64(generation);
  w.U8(state);
  w.U64(map_version);
}

bool HeartbeatMsg::Decode(const Payload& in, HeartbeatMsg& msg) {
  WireReader r(in);
  msg.sender = r.Str();
  msg.generation = r.U64();
  msg.state = r.U8();
  msg.map_version = r.U64();
  return Finish(r);
}

void ClusterMapMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.U64(map.version);
  w.U32(map.replication_factor);
  w.U32(map.write_quorum);
  w.U32(static_cast<std::uint32_t>(map.members.size()));
  for (const cluster::Member& m : map.members) {
    w.Str(m.name);
    w.Str(m.host);
    w.U16(m.port);
    w.U64(m.generation);
    w.U8(static_cast<std::uint8_t>(m.state));
  }
}

bool ClusterMapMsg::Decode(const Payload& in, ClusterMapMsg& msg) {
  WireReader r(in);
  msg.map = cluster::ClusterMap{};
  msg.map.version = r.U64();
  msg.map.replication_factor = r.U32();
  msg.map.write_quorum = r.U32();
  const std::uint32_t count = r.U32();
  if (count > kMaxWireEntries) return false;
  msg.map.members.reserve(count);
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    cluster::Member m;
    m.name = r.Str();
    m.host = r.Str();
    m.port = r.U16();
    m.generation = r.U64();
    const std::uint8_t state = r.U8();
    if (state > static_cast<std::uint8_t>(cluster::MemberState::kDead))
      return false;
    m.state = static_cast<cluster::MemberState>(state);
    msg.map.members.push_back(std::move(m));
  }
  return Finish(r);
}

void ReplicateMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.Str(origin);
  w.Str(topic);
  w.U64(expected_base);
  EncodeEntries(w, entries);
}

bool ReplicateMsg::Decode(const Payload& in, ReplicateMsg& msg) {
  WireReader r(in);
  msg.origin = r.Str();
  msg.topic = r.Str();
  msg.expected_base = r.U64();
  if (!DecodeEntries(r, msg.entries)) return false;
  return Finish(r);
}

void ReplicateAckMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.U8(static_cast<std::uint8_t>(verdict));
  w.U64(next_id);
}

bool ReplicateAckMsg::Decode(const Payload& in, ReplicateAckMsg& msg) {
  WireReader r(in);
  const std::uint8_t verdict = r.U8();
  if (verdict > static_cast<std::uint8_t>(Verdict::kRefused)) return false;
  msg.verdict = static_cast<Verdict>(verdict);
  msg.next_id = r.U64();
  return Finish(r);
}

void CQRegisterMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.Str(name);
  w.Str(sql);
  w.U64(resume_epoch);
  w.U64(resume_seq);
}

bool CQRegisterMsg::Decode(const Payload& in, CQRegisterMsg& msg) {
  WireReader r(in);
  msg.name = r.Str();
  msg.sql = r.Str();
  msg.resume_epoch = r.U64();
  msg.resume_seq = r.U64();
  return Finish(r);
}

void CQRegisterAckMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.U64(cq_id);
  w.U64(epoch);
  w.U64(seq);
}

bool CQRegisterAckMsg::Decode(const Payload& in, CQRegisterAckMsg& msg) {
  WireReader r(in);
  msg.cq_id = r.U64();
  msg.epoch = r.U64();
  msg.seq = r.U64();
  return Finish(r);
}

void CQCancelMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.U64(cq_id);
}

bool CQCancelMsg::Decode(const Payload& in, CQCancelMsg& msg) {
  WireReader r(in);
  msg.cq_id = r.U64();
  return Finish(r);
}

void CQCancelAckMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.U64(cq_id);
}

bool CQCancelAckMsg::Decode(const Payload& in, CQCancelAckMsg& msg) {
  WireReader r(in);
  msg.cq_id = r.U64();
  return Finish(r);
}

void CQUpdateMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.U64(cq_id);
  w.U64(epoch);
  w.U64(seq);
  EncodeResultSet(w, result);
}

bool CQUpdateMsg::Decode(const Payload& in, CQUpdateMsg& msg) {
  WireReader r(in);
  msg.cq_id = r.U64();
  msg.epoch = r.U64();
  msg.seq = r.U64();
  if (!DecodeResultSet(r, msg.result)) return false;
  return Finish(r);
}

void ErrorMsg::Encode(Payload& out) const {
  WireWriter w(out);
  w.U16(static_cast<std::uint16_t>(code));
  w.Str(message);
}

bool ErrorMsg::Decode(const Payload& in, ErrorMsg& msg) {
  WireReader r(in);
  msg.code = static_cast<ErrorCode>(r.U16());
  msg.message = r.Str();
  return Finish(r);
}

}  // namespace apollo::net
