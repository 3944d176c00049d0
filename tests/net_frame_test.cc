// Wire-frame codec tests: roundtrips, split-across-reads reassembly, and a
// table-driven damage sweep (mirrors wal_format_test.cc: every mutation of
// a valid byte stream must be rejected, and a byte stream never resyncs).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "aqe/executor.h"
#include "net/frame.h"
#include "net/messages.h"

namespace apollo::net {
namespace {

std::vector<std::uint8_t> Bytes(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

TEST(NetFrame, EncodeDecodeRoundtrip) {
  std::vector<std::uint8_t> wire;
  const std::vector<std::uint8_t> payload = Bytes({1, 2, 3, 4, 5});
  const std::size_t encoded =
      EncodeFrame(wire, MsgType::kQuery, 42, payload, kFlagPartial);
  EXPECT_EQ(encoded, kHeaderSize + payload.size());
  EXPECT_EQ(wire.size(), encoded);

  FrameParser parser;
  ASSERT_TRUE(parser.Feed(wire.data(), wire.size()));
  Frame frame;
  ASSERT_TRUE(parser.Next(frame));
  EXPECT_EQ(frame.type, MsgType::kQuery);
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_EQ(frame.flags, kFlagPartial);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_FALSE(parser.Next(frame));
  EXPECT_TRUE(parser.ok());
  EXPECT_EQ(parser.PendingBytes(), 0u);
}

TEST(NetFrame, EmptyPayloadFrame) {
  std::vector<std::uint8_t> wire;
  EncodeFrame(wire, MsgType::kPing, 7, {});
  FrameParser parser;
  ASSERT_TRUE(parser.Feed(wire.data(), wire.size()));
  Frame frame;
  ASSERT_TRUE(parser.Next(frame));
  EXPECT_EQ(frame.type, MsgType::kPing);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(NetFrame, SplitAcrossReadsReassembly) {
  std::vector<std::uint8_t> wire;
  const std::vector<std::uint8_t> payload(100, 0xAB);
  EncodeFrame(wire, MsgType::kDeliver, 9, payload);
  EncodeFrame(wire, MsgType::kPong, 10, Bytes({7}));

  // One byte at a time: frames must reassemble exactly once each.
  FrameParser parser;
  std::vector<Frame> frames;
  for (std::uint8_t byte : wire) {
    ASSERT_TRUE(parser.Feed(&byte, 1));
    Frame frame;
    while (parser.Next(frame)) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MsgType::kDeliver);
  EXPECT_EQ(frames[0].payload, payload);
  EXPECT_EQ(frames[1].type, MsgType::kPong);
  EXPECT_EQ(frames[1].request_id, 10u);
}

TEST(NetFrame, TruncatedHeaderIsJustPending) {
  std::vector<std::uint8_t> wire;
  EncodeFrame(wire, MsgType::kHello, 1, Bytes({1, 2, 3}));
  FrameParser parser;
  // Half a header: not an error, just an incomplete frame.
  ASSERT_TRUE(parser.Feed(wire.data(), kHeaderSize / 2));
  Frame frame;
  EXPECT_FALSE(parser.Next(frame));
  EXPECT_TRUE(parser.ok());
  EXPECT_EQ(parser.PendingBytes(), kHeaderSize / 2);
  // The rest arrives: the frame completes.
  ASSERT_TRUE(
      parser.Feed(wire.data() + kHeaderSize / 2, wire.size() - kHeaderSize / 2));
  ASSERT_TRUE(parser.Next(frame));
  EXPECT_EQ(frame.payload, Bytes({1, 2, 3}));
}

struct DamageCase {
  const char* name;
  std::size_t offset;       // byte to mutate
  std::uint8_t xor_mask;    // flip these bits
};

// Mutating any load-bearing header byte (or the payload under the CRC)
// must poison the stream permanently.
TEST(NetFrame, DamageSweepRejectsAndLatches) {
  const DamageCase kCases[] = {
      {"flipped magic", 0, 0xFF},
      {"bad version", 4, 0x02},
      {"oversized length", 10, 0xFF},  // length byte 2 -> ~16 MiB
      {"flipped length low bit", 8, 0x01},
      {"flipped crc", 16, 0x01},
      {"flipped payload byte", kHeaderSize, 0x80},
      {"flipped flags", 6, 0x01},       // flags are CRC-covered
      {"flipped request id", 12, 0x01}, // request id is CRC-covered
  };
  for (const DamageCase& damage : kCases) {
    SCOPED_TRACE(damage.name);
    std::vector<std::uint8_t> wire;
    EncodeFrame(wire, MsgType::kPublishBatch, 5, Bytes({10, 20, 30}));
    ASSERT_LT(damage.offset, wire.size());
    wire[damage.offset] ^= damage.xor_mask;

    FrameParser parser;
    EXPECT_FALSE(parser.Feed(wire.data(), wire.size()));
    EXPECT_FALSE(parser.ok());
    EXPECT_FALSE(parser.error().empty());
    Frame frame;
    EXPECT_FALSE(parser.Next(frame));

    // Permanent error state: even a pristine frame is refused now.
    std::vector<std::uint8_t> good;
    EncodeFrame(good, MsgType::kPing, 6, {});
    EXPECT_FALSE(parser.Feed(good.data(), good.size()));
    EXPECT_FALSE(parser.Next(frame));
  }
}

TEST(NetFrame, GarbageAfterValidFramePoisonsStream) {
  std::vector<std::uint8_t> wire;
  EncodeFrame(wire, MsgType::kPing, 1, {});
  std::vector<std::uint8_t> garbage(kHeaderSize, 0xEE);
  wire.insert(wire.end(), garbage.begin(), garbage.end());
  FrameParser parser;
  EXPECT_FALSE(parser.Feed(wire.data(), wire.size()));
  // The valid frame parsed before the stream died.
  Frame frame;
  ASSERT_TRUE(parser.Next(frame));
  EXPECT_EQ(frame.type, MsgType::kPing);
  EXPECT_FALSE(parser.ok());
}

TEST(NetFrame, OversizedDeclaredLengthRejectedBeforeBuffering) {
  std::vector<std::uint8_t> wire;
  EncodeFrame(wire, MsgType::kPublishBatch, 1, Bytes({1}));
  // Declare a payload just past the cap; the parser must refuse without
  // waiting for (kMaxFrameLen + 1) bytes to arrive.
  const std::uint32_t huge = kMaxFrameLen + 1;
  wire[8] = static_cast<std::uint8_t>(huge);
  wire[9] = static_cast<std::uint8_t>(huge >> 8);
  wire[10] = static_cast<std::uint8_t>(huge >> 16);
  wire[11] = static_cast<std::uint8_t>(huge >> 24);
  FrameParser parser;
  EXPECT_FALSE(parser.Feed(wire.data(), kHeaderSize));
  EXPECT_FALSE(parser.ok());
}

TEST(NetFrame, WireReaderLatchesOnShortRead) {
  const std::vector<std::uint8_t> three = Bytes({1, 2, 3});
  WireReader reader(three);
  EXPECT_EQ(reader.U16(), 0x0201u);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.U32(), 0u);  // short: latches
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.U8(), 0u);  // stays latched
  EXPECT_FALSE(reader.ok());
}

TEST(NetFrame, WireWriterReaderRoundtrip) {
  std::vector<std::uint8_t> buf;
  WireWriter writer(buf);
  writer.U8(0x12);
  writer.U16(0x3456);
  writer.U32(0x789ABCDE);
  writer.U64(0x1122334455667788ULL);
  writer.I64(-42);
  writer.F64(3.25);
  writer.Str("apollo");
  WireReader reader(buf);
  EXPECT_EQ(reader.U8(), 0x12u);
  EXPECT_EQ(reader.U16(), 0x3456u);
  EXPECT_EQ(reader.U32(), 0x789ABCDEu);
  EXPECT_EQ(reader.U64(), 0x1122334455667788ULL);
  EXPECT_EQ(reader.I64(), -42);
  EXPECT_EQ(reader.F64(), 3.25);
  EXPECT_EQ(reader.Str(), "apollo");
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(NetMessages, DeliverRoundtripCarriesEntries) {
  DeliverMsg msg;
  msg.subscription_id = 3;
  msg.topic = "t";
  for (int i = 0; i < 5; ++i) {
    TelemetryStream::Entry entry;
    entry.id = static_cast<std::uint64_t>(i);
    entry.timestamp = i * 1000;
    entry.value.timestamp = i * 1000;
    entry.value.value = i * 0.5;
    entry.value.provenance = Provenance::kMeasured;
    msg.entries.push_back(entry);
  }
  Payload payload;
  msg.Encode(payload);
  DeliverMsg decoded;
  ASSERT_TRUE(DeliverMsg::Decode(payload, decoded));
  ASSERT_EQ(decoded.entries.size(), 5u);
  EXPECT_EQ(decoded.entries[4].id, 4u);
  EXPECT_EQ(decoded.entries[4].value.value, 2.0);
}

// A window entry whose provenance byte is neither 0 (measured) nor 1
// (predicted) fails decode, like any other malformed field.
TEST(NetMessages, UnknownProvenanceByteFailsEntryDecode) {
  DeliverMsg msg;
  msg.subscription_id = 1;
  msg.topic = "t";
  TelemetryStream::Entry entry;
  entry.value.provenance = Provenance::kPredicted;
  msg.entries.push_back(entry);
  Payload payload;
  msg.Encode(payload);
  DeliverMsg decoded;
  ASSERT_TRUE(DeliverMsg::Decode(payload, decoded));
  EXPECT_EQ(decoded.entries[0].value.provenance, Provenance::kPredicted);

  msg.entries[0].value.provenance = static_cast<Provenance>(2);
  payload.clear();
  msg.Encode(payload);
  EXPECT_FALSE(DeliverMsg::Decode(payload, decoded));
}

TEST(NetMessages, ResultRoundtripCarriesDegradedRollups) {
  ResultMsg msg;
  msg.result.columns = {"MAX(timestamp)", "LAST(metric)"};
  aqe::ResultRow row;
  row.source = "storage0.hdd.utilization";
  row.values = {1.0, 2.0};
  row.degraded = true;
  row.staleness_ns = 777;
  msg.result.rows.push_back(row);
  msg.result.degraded = true;
  msg.result.max_staleness_ns = 777;
  msg.served_tables = {"storage0.hdd.utilization"};
  Payload payload;
  msg.Encode(payload);
  ResultMsg decoded;
  ASSERT_TRUE(ResultMsg::Decode(payload, decoded));
  EXPECT_EQ(decoded.result.columns, msg.result.columns);
  ASSERT_EQ(decoded.result.rows.size(), 1u);
  EXPECT_EQ(decoded.result.rows[0].source, row.source);
  EXPECT_EQ(decoded.result.rows[0].values, row.values);
  EXPECT_TRUE(decoded.result.rows[0].degraded);
  EXPECT_EQ(decoded.result.rows[0].staleness_ns, 777);
  EXPECT_TRUE(decoded.result.degraded);
  EXPECT_EQ(decoded.served_tables, msg.served_tables);
}

TEST(NetMessages, DecodeRejectsTrailingGarbage) {
  SubscribeAckMsg msg;
  msg.subscription_id = 5;
  msg.start_cursor = 9;
  Payload payload;
  msg.Encode(payload);
  payload.push_back(0xFF);
  SubscribeAckMsg decoded;
  EXPECT_FALSE(SubscribeAckMsg::Decode(payload, decoded));
}

TEST(NetMessages, DecodeRejectsTruncation) {
  SubscribeMsg msg;
  msg.topic = "topic";
  msg.cursor = 12;
  Payload payload;
  msg.Encode(payload);
  payload.pop_back();
  SubscribeMsg decoded;
  EXPECT_FALSE(SubscribeMsg::Decode(payload, decoded));
}

// Frames pinned byte for byte, as the byte-at-a-time writer encoded them:
// a roundtrip cannot catch a change that the encoder and the decoder make
// the same way, so each frame is compared with the bytes a peer built
// before any such change would send.
PublishBatchMsg GoldenBatch() {
  PublishBatchMsg msg;
  PublishBatchMsg::Run a;
  a.topic = "cpu.load";
  for (int i = 0; i < 2; ++i) {
    TelemetryStream::Entry entry;
    entry.timestamp = 1'700'000'000'123'456'789LL + i;
    entry.value = Sample{entry.timestamp, i == 0 ? 0.5 : -1234.0625,
                         i == 0 ? Provenance::kMeasured
                                : Provenance::kPredicted};
    a.entries.push_back(entry);
  }
  PublishBatchMsg::Run b;
  b.topic = "n";
  TelemetryStream::Entry entry;
  entry.timestamp = -2;
  entry.value = Sample{-2, 1e300, Provenance::kMeasured};
  b.entries.push_back(entry);
  msg.runs = {a, b};
  return msg;
}

ResultMsg GoldenResult() {
  ResultMsg msg;
  msg.result.columns = {"COUNT(*)", "AVG(metric)"};
  aqe::ResultRow first;
  first.source = "t0";
  first.values = {3.0, 2.5};
  first.staleness_ns = 1'000'000;
  aqe::ResultRow second;
  second.source = "t1";
  second.values = {-0.0};
  second.degraded = true;
  second.staleness_ns = std::numeric_limits<std::int64_t>::max();
  msg.result.rows = {first, second};
  msg.result.degraded = true;
  msg.result.max_staleness_ns = std::numeric_limits<std::int64_t>::max();
  msg.served_tables = {"t0", "t1"};
  return msg;
}

// kPublishBatch, request 0x01020304, kFlagForwarded.
const std::vector<std::uint8_t> kGoldenBatchFrame = Bytes({
    0x41, 0x50, 0x4C, 0x4F, 0x01, 0x13, 0x02, 0x00, 0x68, 0x00, 0x00, 0x00,
    0x04, 0x03, 0x02, 0x01, 0xB7, 0xEE, 0xD9, 0x3E, 0x02, 0x00, 0x00, 0x00,
    0x08, 0x00, 0x00, 0x00, 0x63, 0x70, 0x75, 0x2E, 0x6C, 0x6F, 0x61, 0x64,
    0x02, 0x00, 0x00, 0x00, 0x15, 0xCD, 0x85, 0x3D, 0xFE, 0x9C, 0x97, 0x17,
    0x15, 0xCD, 0x85, 0x3D, 0xFE, 0x9C, 0x97, 0x17, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xE0, 0x3F, 0x00, 0x16, 0xCD, 0x85, 0x3D, 0xFE, 0x9C, 0x97,
    0x17, 0x16, 0xCD, 0x85, 0x3D, 0xFE, 0x9C, 0x97, 0x17, 0x00, 0x00, 0x00,
    0x00, 0x40, 0x48, 0x93, 0xC0, 0x01, 0x01, 0x00, 0x00, 0x00, 0x6E, 0x01,
    0x00, 0x00, 0x00, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFE,
    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x9C, 0x75, 0x00, 0x88, 0x3C,
    0xE4, 0x37, 0x7E, 0x00,
});

// kResult, request 77.
const std::vector<std::uint8_t> kGoldenResultFrame = Bytes({
    0x41, 0x50, 0x4C, 0x4F, 0x01, 0x0D, 0x00, 0x00, 0x7A, 0x00, 0x00, 0x00,
    0x4D, 0x00, 0x00, 0x00, 0xC9, 0xD9, 0x35, 0x0F, 0x01, 0xFF, 0xFF, 0xFF,
    0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x02, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00,
    0x00, 0x43, 0x4F, 0x55, 0x4E, 0x54, 0x28, 0x2A, 0x29, 0x0B, 0x00, 0x00,
    0x00, 0x41, 0x56, 0x47, 0x28, 0x6D, 0x65, 0x74, 0x72, 0x69, 0x63, 0x29,
    0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x74, 0x30, 0x00, 0x40,
    0x42, 0x0F, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x04, 0x40, 0x02, 0x00, 0x00, 0x00, 0x74, 0x31, 0x01, 0xFF, 0xFF,
    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00,
    0x00, 0x00, 0x74, 0x30, 0x02, 0x00, 0x00, 0x00, 0x74, 0x31,
});

TEST(NetMessages, GoldenFramesKeepTheirBytes) {
  Payload payload;
  GoldenBatch().Encode(payload);
  std::vector<std::uint8_t> wire;
  EncodeFrame(wire, MsgType::kPublishBatch, 0x01020304u, payload,
              kFlagForwarded);
  EXPECT_EQ(wire, kGoldenBatchFrame);

  payload.clear();
  GoldenResult().Encode(payload);
  wire.clear();
  EncodeFrame(wire, MsgType::kResult, 77u, payload);
  EXPECT_EQ(wire, kGoldenResultFrame);
}

TEST(NetMessages, GoldenFramesDecodeToTheirMessages) {
  FrameParser parser;
  ASSERT_TRUE(
      parser.Feed(kGoldenBatchFrame.data(), kGoldenBatchFrame.size()));
  ASSERT_TRUE(
      parser.Feed(kGoldenResultFrame.data(), kGoldenResultFrame.size()));
  Frame frame;
  ASSERT_TRUE(parser.Next(frame));
  EXPECT_EQ(frame.type, MsgType::kPublishBatch);
  EXPECT_EQ(frame.request_id, 0x01020304u);
  EXPECT_EQ(frame.flags, kFlagForwarded);
  PublishBatchMsg batch;
  ASSERT_TRUE(PublishBatchMsg::Decode(frame.payload, batch));
  const PublishBatchMsg want = GoldenBatch();
  ASSERT_EQ(batch.runs.size(), want.runs.size());
  for (std::size_t r = 0; r < want.runs.size(); ++r) {
    EXPECT_EQ(batch.runs[r].topic, want.runs[r].topic);
    ASSERT_EQ(batch.runs[r].entries.size(), want.runs[r].entries.size());
    for (std::size_t i = 0; i < want.runs[r].entries.size(); ++i) {
      const auto& got = batch.runs[r].entries[i];
      const auto& expect = want.runs[r].entries[i];
      EXPECT_EQ(got.timestamp, expect.timestamp);
      EXPECT_EQ(got.value.timestamp, expect.value.timestamp);
      EXPECT_EQ(got.value.value, expect.value.value);
      EXPECT_EQ(got.value.provenance, expect.value.provenance);
    }
  }

  ASSERT_TRUE(parser.Next(frame));
  EXPECT_EQ(frame.type, MsgType::kResult);
  EXPECT_EQ(frame.request_id, 77u);
  ResultMsg result;
  ASSERT_TRUE(ResultMsg::Decode(frame.payload, result));
  const ResultMsg expect = GoldenResult();
  EXPECT_EQ(result.result.columns, expect.result.columns);
  ASSERT_EQ(result.result.rows.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(result.result.rows[i].source, expect.result.rows[i].source);
    EXPECT_EQ(result.result.rows[i].values, expect.result.rows[i].values);
    EXPECT_EQ(result.result.rows[i].degraded,
              expect.result.rows[i].degraded);
    EXPECT_EQ(result.result.rows[i].staleness_ns,
              expect.result.rows[i].staleness_ns);
  }
  EXPECT_TRUE(std::signbit(result.result.rows[1].values[0]));
  EXPECT_TRUE(result.result.degraded);
  EXPECT_EQ(result.result.max_staleness_ns, expect.result.max_staleness_ns);
  EXPECT_EQ(result.served_tables, expect.served_tables);
  EXPECT_FALSE(parser.Next(frame));
}

TEST(NetMessages, ErrorRoundtripPreservesCode) {
  ErrorMsg msg;
  msg.code = ErrorCode::kNotFound;
  msg.message = "no such topic";
  Payload payload;
  msg.Encode(payload);
  ErrorMsg decoded;
  ASSERT_TRUE(ErrorMsg::Decode(payload, decoded));
  EXPECT_EQ(decoded.code, ErrorCode::kNotFound);
  EXPECT_EQ(decoded.ToError().message(), "no such topic");
}

}  // namespace
}  // namespace apollo::net
