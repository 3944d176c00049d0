// WAL format unit tests: CRC32C known answers, header validation, and a
// table-driven corruption sweep proving the scanner truncates to the exact
// valid prefix for every class of damage.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "pubsub/wal_format.h"

namespace apollo::wal {
namespace {

// Builds a segment image with `n` fixed-size records whose payloads are
// filled with a per-record byte pattern.
std::vector<std::uint8_t> BuildSegment(std::uint32_t payload_size,
                                       std::size_t n) {
  std::vector<std::uint8_t> image(kHeaderSize);
  EncodeHeader(image.data(), payload_size);
  std::vector<std::uint8_t> payload(payload_size);
  std::vector<std::uint8_t> frame(kFrameOverhead + payload_size);
  for (std::size_t i = 0; i < n; ++i) {
    std::memset(payload.data(), static_cast<int>(0x10 + i), payload.size());
    EncodeRecord(frame.data(), payload.data(), payload_size);
    image.insert(image.end(), frame.begin(), frame.end());
  }
  return image;
}

TEST(Crc32c, KnownAnswer) {
  // The canonical CRC32C check value: "123456789" -> 0xE3069283.
  const char* digits = "123456789";
  EXPECT_EQ(Crc32c(digits, 9), 0xE3069283u);
}

TEST(Crc32c, SeedChainsPartialComputations) {
  const char* digits = "123456789";
  const std::uint32_t first = Crc32c(digits, 4);
  EXPECT_EQ(Crc32c(digits + 4, 5, first), Crc32c(digits, 9));
}

TEST(Crc32c, EmptyInputIsZero) { EXPECT_EQ(Crc32c("", 0), 0u); }

// Both CRC32C paths: Crc32c (the SSE4.2 instruction where the CPU has
// it) and the portable table walk it falls back to, so a host that
// selects one path still tests the other.
struct CrcPath {
  const char* name;
  std::uint32_t (*crc)(const void* data, std::size_t len, std::uint32_t seed);
};
constexpr CrcPath kCrcPaths[] = {{"Crc32c", Crc32c},
                                 {"Crc32cPortable", Crc32cPortable}};

// RFC 3720 §B.4 CRC32C examples (32-byte inputs).
TEST(Crc32c, Rfc3720Vectors) {
  for (const CrcPath& path : kCrcPaths) {
    SCOPED_TRACE(path.name);
    std::uint8_t buf[32];
    std::memset(buf, 0x00, sizeof(buf));
    EXPECT_EQ(path.crc(buf, sizeof(buf), 0), 0x8A9136AAu);
    std::memset(buf, 0xFF, sizeof(buf));
    EXPECT_EQ(path.crc(buf, sizeof(buf), 0), 0x62A8AB43u);
    for (std::size_t i = 0; i < sizeof(buf); ++i) {
      buf[i] = static_cast<std::uint8_t>(i);
    }
    EXPECT_EQ(path.crc(buf, sizeof(buf), 0), 0x46DD794Eu);
    for (std::size_t i = 0; i < sizeof(buf); ++i) {
      buf[i] = static_cast<std::uint8_t>(31 - i);
    }
    EXPECT_EQ(path.crc(buf, sizeof(buf), 0), 0x113FDB5Cu);
  }
}

// Bit-at-a-time CRC32C straight from the polynomial: the reference both
// paths must match bit for bit.
std::uint32_t ReferenceCrc32c(const std::uint8_t* data, std::size_t len,
                              std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32c, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  std::vector<std::uint8_t> buf(300 + 8);
  std::uint32_t x = 0x12345678u;
  for (std::uint8_t& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (const CrcPath& path : kCrcPaths) {
    for (const std::uint32_t seed : {0u, 0xDEADBEEFu}) {
      for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 300; ++len) {
          const std::uint8_t* data = buf.data() + offset;
          ASSERT_EQ(path.crc(data, len, seed),
                    ReferenceCrc32c(data, len, seed))
              << path.name << " seed=" << seed << " offset=" << offset
              << " len=" << len;
        }
      }
    }
  }
}

TEST(WalHeader, RoundTrip) {
  std::uint8_t header[kHeaderSize];
  EncodeHeader(header, 40);
  std::uint32_t payload_size = 0;
  ASSERT_TRUE(DecodeHeader(header, sizeof(header), &payload_size));
  EXPECT_EQ(payload_size, 40u);
}

TEST(WalHeader, RejectsShortBuffer) {
  std::uint8_t header[kHeaderSize];
  EncodeHeader(header, 40);
  EXPECT_FALSE(DecodeHeader(header, kHeaderSize - 1, nullptr));
}

TEST(WalHeader, RejectsOversizePayloadHint) {
  std::uint8_t header[kHeaderSize];
  EncodeHeader(header, kMaxRecordLen + 1);
  EXPECT_FALSE(DecodeHeader(header, sizeof(header), nullptr));
}

TEST(WalScan, CleanSegment) {
  const auto image = BuildSegment(32, 5);
  std::size_t visited = 0;
  const ScanResult result =
      ScanBuffer(image.data(), image.size(),
                 [&](const std::uint8_t* payload, std::uint32_t len) {
                   EXPECT_EQ(len, 32u);
                   EXPECT_EQ(payload[0], 0x10 + visited);
                   ++visited;
                 });
  EXPECT_TRUE(result.header_ok);
  EXPECT_TRUE(result.clean);
  EXPECT_EQ(result.records, 5u);
  EXPECT_EQ(visited, 5u);
  EXPECT_EQ(result.valid_bytes, image.size());
  EXPECT_EQ(result.dropped_bytes, 0u);
}

TEST(WalScan, HeaderOnlySegmentIsCleanAndEmpty) {
  const auto image = BuildSegment(32, 0);
  const ScanResult result = ScanBuffer(image.data(), image.size());
  EXPECT_TRUE(result.header_ok);
  EXPECT_TRUE(result.clean);
  EXPECT_EQ(result.records, 0u);
}

TEST(WalScan, EmptyBufferDropsEverything) {
  const ScanResult result = ScanBuffer(nullptr, 0);
  EXPECT_FALSE(result.header_ok);
  EXPECT_EQ(result.records, 0u);
  EXPECT_EQ(result.dropped_bytes, 0u);
}

// One corruption case: flip/truncate at a given offset and assert exactly
// how much of the segment survives.
struct CorruptionCase {
  const char* name;
  // Offset of the byte to flip (relative to segment start); SIZE_MAX =
  // no flip (truncation-only case).
  std::size_t flip_offset;
  // Bytes to keep (SIZE_MAX = whole image).
  std::size_t keep_bytes;
  bool want_header_ok;
  std::uint64_t want_records;
};

constexpr std::uint32_t kPayload = 32;  // per-record payload bytes
constexpr std::size_t kFrame = kFrameOverhead + kPayload;
constexpr std::size_t kRecords = 4;

// Offset helpers for record j within the image.
constexpr std::size_t RecordStart(std::size_t j) {
  return kHeaderSize + j * kFrame;
}

const CorruptionCase kCases[] = {
    // Header damage: the whole segment is unreadable (quarantine class).
    {"magic_byte_flip", 0, SIZE_MAX, false, 0},
    {"version_byte_flip", 4, SIZE_MAX, false, 0},
    {"payload_size_hint_flip", 8, SIZE_MAX, false, 0},
    {"header_crc_flip", 12, SIZE_MAX, false, 0},
    // Frame damage in record 2: records 0-1 survive, 2+ drop.
    {"length_field_flip", RecordStart(2), SIZE_MAX, true, 2},
    {"crc_field_flip", RecordStart(2) + 4, SIZE_MAX, true, 2},
    {"payload_first_byte_flip", RecordStart(2) + kFrameOverhead, SIZE_MAX,
     true, 2},
    {"payload_last_byte_flip", RecordStart(3) - 1, SIZE_MAX, true, 2},
    // Damage in record 0: nothing survives (but the header still parses).
    {"first_record_payload_flip", RecordStart(0) + kFrameOverhead, SIZE_MAX,
     true, 0},
    // Torn tails: truncation mid-frame keeps every whole record before it.
    {"torn_mid_length_prefix", SIZE_MAX, RecordStart(3) + 2, true, 3},
    {"torn_mid_payload", SIZE_MAX, RecordStart(3) + kFrameOverhead + 10,
     true, 3},
    {"torn_after_frame_overhead", SIZE_MAX, RecordStart(1) + kFrameOverhead,
     true, 1},
    {"torn_mid_header", SIZE_MAX, kHeaderSize - 3, false, 0},
};

class WalCorruption : public ::testing::TestWithParam<CorruptionCase> {};

TEST_P(WalCorruption, TruncatesToExactValidPrefix) {
  const CorruptionCase& c = GetParam();
  auto image = BuildSegment(kPayload, kRecords);
  if (c.keep_bytes != SIZE_MAX) image.resize(c.keep_bytes);
  if (c.flip_offset != SIZE_MAX) {
    ASSERT_LT(c.flip_offset, image.size());
    image[c.flip_offset] ^= 0xFF;
  }

  const ScanResult result = ScanBuffer(image.data(), image.size());
  EXPECT_EQ(result.header_ok, c.want_header_ok);
  EXPECT_EQ(result.records, c.want_records);
  if (c.want_header_ok) {
    // Valid prefix is exactly the header plus the surviving records; the
    // rest must be reported dropped, byte for byte.
    const std::uint64_t want_valid = kHeaderSize + c.want_records * kFrame;
    EXPECT_EQ(result.valid_bytes, want_valid);
    EXPECT_EQ(result.dropped_bytes, image.size() - want_valid);
  } else {
    EXPECT_EQ(result.valid_bytes, 0u);
    EXPECT_EQ(result.dropped_bytes, image.size());
  }
  EXPECT_EQ(result.clean, result.dropped_bytes == 0 && result.header_ok);
}

INSTANTIATE_TEST_SUITE_P(
    AllDamageClasses, WalCorruption, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<CorruptionCase>& info) {
      return std::string(info.param.name);
    });

TEST(WalScan, OversizeLengthFieldStopsScan) {
  auto image = BuildSegment(0, 0);  // variable-length segment
  // Hand-craft a frame claiming an absurd length.
  std::uint8_t frame[kFrameOverhead] = {};
  const std::uint32_t bad_len = kMaxRecordLen + 1;
  std::memcpy(frame, &bad_len, sizeof(bad_len));
  image.insert(image.end(), frame, frame + sizeof(frame));

  const ScanResult result = ScanBuffer(image.data(), image.size());
  EXPECT_TRUE(result.header_ok);
  EXPECT_EQ(result.records, 0u);
  EXPECT_EQ(result.valid_bytes, kHeaderSize);
  EXPECT_EQ(result.dropped_bytes, sizeof(frame));
}

TEST(WalScan, FixedPayloadSegmentRejectsMismatchedLength) {
  auto image = BuildSegment(32, 1);
  // Append a valid variable-length record of the wrong size: the fixed
  // payload_size hint must reject it.
  std::vector<std::uint8_t> small(16, 0xAB);
  std::vector<std::uint8_t> frame(kFrameOverhead + small.size());
  EncodeRecord(frame.data(), small.data(), small.size());
  image.insert(image.end(), frame.begin(), frame.end());

  const ScanResult result = ScanBuffer(image.data(), image.size());
  EXPECT_TRUE(result.header_ok);
  EXPECT_EQ(result.records, 1u);
  EXPECT_EQ(result.dropped_bytes, frame.size());
}

}  // namespace
}  // namespace apollo::wal
