#include "pubsub/wal_format.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace apollo::wal {

namespace {

// Slicing-by-8 CRC32C tables (poly 0x82F63B78, reflected). kCrcTables[0]
// is the classic byte-at-a-time table; kCrcTables[k][b] is the CRC of byte
// b followed by k zero bytes, so eight table lookups fold eight input
// bytes into the CRC at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;
constexpr CrcTables kCrcTables = [] {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}();

void PutU32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t GetU32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes the same reflected CRC32C, eight
// bytes an instruction; only called once HasSse42() said the CPU has it.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cSse42(
    const std::uint8_t* bytes, std::size_t len, std::uint32_t seed) {
  std::uint64_t crc = ~seed;
  for (; len >= 8; bytes += 8, len -= 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; len > 0; ++bytes, --len) crc32 = _mm_crc32_u8(crc32, *bytes);
  return ~crc32;
}

// Probed once, on first use. A function-local static with its own
// __builtin_cpu_init(), so a CRC taken during static initialisation
// (before the runtime's CPU probe has run) still sees the right answer.
bool HasSse42() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
}
#endif

}  // namespace

std::uint32_t Crc32c(const void* data, std::size_t len, std::uint32_t seed) {
#if defined(__x86_64__)
  if (HasSse42()) {
    return Crc32cSse42(static_cast<const std::uint8_t*>(data), len, seed);
  }
#endif
  return Crc32cPortable(data, len, seed);
}

std::uint32_t Crc32cPortable(const void* data, std::size_t len,
                             std::uint32_t seed) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  const auto& t = kCrcTables;
  std::uint32_t crc = ~seed;
  for (; len >= 8; bytes += 8, len -= 8) {
    const std::uint32_t lo = GetU32(bytes) ^ crc;
    const std::uint32_t hi = GetU32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

void EncodeHeader(std::uint8_t* out, std::uint32_t payload_size) {
  PutU32(out, kMagic);
  PutU32(out + 4, kVersion);
  PutU32(out + 8, payload_size);
  PutU32(out + 12, Crc32c(out, 12));
}

bool DecodeHeader(const std::uint8_t* data, std::size_t size,
                  std::uint32_t* payload_size) {
  if (size < kHeaderSize) return false;
  if (GetU32(data) != kMagic) return false;
  if (GetU32(data + 4) != kVersion) return false;
  if (GetU32(data + 12) != Crc32c(data, 12)) return false;
  const std::uint32_t hint = GetU32(data + 8);
  if (hint > kMaxRecordLen) return false;
  if (payload_size != nullptr) *payload_size = hint;
  return true;
}

std::size_t EncodeRecord(std::uint8_t* out, const void* payload,
                         std::uint32_t len) {
  PutU32(out, len);
  PutU32(out + 4, Crc32c(payload, len));
  std::memcpy(out + kFrameOverhead, payload, len);
  return kFrameOverhead + len;
}

std::size_t CheckFrame(const std::uint8_t* data, std::size_t size,
                       std::uint32_t payload_size) {
  if (size < kFrameOverhead) return 0;
  const std::uint32_t len = GetU32(data);
  if (len > kMaxRecordLen) return 0;
  if (payload_size != 0 && len != payload_size) return 0;
  if (size - kFrameOverhead < len) return 0;  // torn tail
  if (GetU32(data + 4) != Crc32c(data + kFrameOverhead, len)) return 0;
  return kFrameOverhead + len;
}

ScanResult ScanBuffer(
    const std::uint8_t* data, std::size_t size,
    const std::function<void(const std::uint8_t* payload,
                             std::uint32_t len)>& visit) {
  ScanResult result;
  std::uint32_t payload_size = 0;
  if (!DecodeHeader(data, size, &payload_size)) {
    result.dropped_bytes = size;
    return result;
  }
  result.header_ok = true;
  std::size_t pos = kHeaderSize;
  for (std::size_t frame;
       (frame = CheckFrame(data + pos, size - pos, payload_size)) != 0;
       pos += frame) {
    if (visit) {
      visit(data + pos + kFrameOverhead,
            static_cast<std::uint32_t>(frame - kFrameOverhead));
    }
    ++result.records;
  }
  result.valid_bytes = pos;
  result.dropped_bytes = size - pos;
  result.clean = result.dropped_bytes == 0;
  return result;
}

}  // namespace apollo::wal
