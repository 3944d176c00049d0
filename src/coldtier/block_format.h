// Columnar archive block format for the cold tier.
//
// A block is the immutable, compressed form of one sealed WAL segment's
// records. Rows are stored as four independently CRC32C-framed column
// sections behind a fixed header and a zone map (all integers
// little-endian):
//
//   BlockHeader (16 bytes):
//     u32 magic        "ACB1" (0x31424341)
//     u32 version      format version (currently 1)
//     u32 row_count    rows in the block (<= kMaxBlockRows)
//     u32 header_crc   CRC32C over the first 12 bytes
//   ZoneMap (64 bytes):
//     i64 min_ts, max_ts          timestamp bounds over every row
//     u64 min_value_bits          bit pattern of min value (NaNs ignored,
//                                 -0.0 below +0.0)
//     u64 max_value_bits          bit pattern of max value (same order)
//     u64 sum_value_bits          bit pattern of the row-order value sum
//     u64 first_id, last_id       entry-id bounds (ids strictly increase)
//     u32 zone_crc                CRC32C over the 56 bytes above
//   Column section, repeated 5x (ids, timestamps, sample-timestamp
//   offsets, values, provenance):
//     u32 length
//     u32 crc          CRC32C over the payload
//     u8  payload[length]
//
// Column encodings:
//   ids         varint first_id, then varint deltas (each >= 1)
//   timestamps  zigzag varint t0, zigzag varint first delta, then zigzag
//               varint delta-of-deltas (wrapping two's-complement i64)
//   sample ts   zigzag varint of (sample_timestamp - timestamp) per row —
//               the compactor writes the copy equal, so this column is
//               one zero byte per row
//   values      Gorilla-style XOR: raw 64 bits for v0; then per value a
//               '0' bit (same as previous) or '1' + ('0' reuse previous
//               leading/length window | '1' + 5-bit leading-zero count +
//               6-bit (significant-bits - 1)) + the significant bits
//   provenance  RLE pairs (varint run length, u8 value)
//
// The decoder is the fuzz target behind APOLLO_FUZZ: it must never read
// out of bounds and never return rows that differ from what was encoded —
// every section CRC is checked before parsing, every varint/bit read is
// bounds-checked, the whole buffer must be consumed exactly, and the
// stored zone map must match one recomputed from the decoded rows bit for
// bit. It accepts only the canonical image of its rows: minimal varints,
// and explicit Gorilla windows exactly as the encoder writes them (see
// DecodeValues). Anything else is reported as corrupt, never as data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "pubsub/telemetry.h"

namespace apollo::coldtier {

inline constexpr std::uint32_t kBlockMagic = 0x31424341u;  // "ACB1"
inline constexpr std::uint32_t kBlockVersion = 1;
inline constexpr std::size_t kBlockHeaderSize = 16;
inline constexpr std::size_t kZoneMapSize = 64;  // 56 payload + u32 crc + pad
// Upper bound on rows per block: rejects absurd counts decoded from
// corrupt headers before they can drive huge allocations.
inline constexpr std::uint32_t kMaxBlockRows = 1u << 24;
inline constexpr std::uint32_t kMaxSectionLen = 1u << 28;

// A block's rows as columns, one array per column section, for the codec,
// the compactor and the scan alike: row i is id ids[i] with the i-th
// sample of `samples`. ts_offsets[i] is the format's copy of its time, as
// the difference from it: written 0, round-tripped, ignored by reads.
struct BlockColumns {
  std::vector<std::uint64_t> ids;
  ColumnBuffer samples;
  std::vector<std::int64_t> ts_offsets;

  std::size_t size() const { return ids.size(); }
  void Push(std::uint64_t id, const Sample& sample,
            std::int64_t ts_offset = 0) {
    ids.push_back(id);
    samples.Push(sample);
    ts_offsets.push_back(ts_offset);
  }
  void Resize(std::size_t n) {
    ids.resize(n);
    samples.Resize(n);
    ts_offsets.resize(n);
  }
};

// Per-block statistics used for scan pruning. min/max value ignore NaNs
// (a block of only NaNs has min=+inf, max=-inf); sum is the row-order
// double sum, stored as a bit pattern so NaN payloads compare exactly.
struct ZoneMap {
  TimeNs min_ts = 0;
  TimeNs max_ts = 0;
  std::uint64_t min_value_bits = 0;
  std::uint64_t max_value_bits = 0;
  std::uint64_t sum_value_bits = 0;
  std::uint64_t first_id = 0;
  std::uint64_t last_id = 0;

  double min_value() const;
  double max_value() const;
  double sum_value() const;

  bool operator==(const ZoneMap& other) const;
};

// Recomputes the zone map over `rows` exactly the way EncodeBlock does.
ZoneMap ComputeZoneMap(const BlockColumns& rows);

// Encodes `rows` into a complete block image in `out` (cleared first).
// Fails (returns false, `out` cleared) when rows is empty, exceeds
// kMaxBlockRows, its columns differ in length, or ids are not strictly
// increasing.
bool EncodeBlock(const BlockColumns& rows, std::vector<std::uint8_t>& out);

struct DecodedBlock {
  ZoneMap zone;
  BlockColumns columns;
};

// Decodes a whole block image. Returns false on any malformation: bad
// header/CRC, section overrun, trailing bytes, varint/bitstream overrun,
// a non-canonical varint or Gorilla window, non-monotonic ids, RLE
// mismatch, or a zone map that does not match the decoded rows. On false,
// `out` contents are unspecified. `out->columns` keep their capacity, so a
// caller decoding many blocks into one DecodedBlock allocates only when a
// block is larger than any before it.
bool DecodeBlock(const std::uint8_t* data, std::size_t size,
                 DecodedBlock* out);

// Decodes just the header + zone map (for cheap inspection). Returns
// false when the first kBlockHeaderSize + kZoneMapSize bytes are invalid.
bool DecodeZoneMap(const std::uint8_t* data, std::size_t size,
                   std::uint32_t* row_count, ZoneMap* zone);

// Serialization helpers shared with the manifest codec.
void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v);
void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v);
std::uint32_t GetU32(const std::uint8_t* p);
std::uint64_t GetU64(const std::uint8_t* p);
void PutZone(std::vector<std::uint8_t>& out, const ZoneMap& zone);
ZoneMap GetZone(const std::uint8_t* p);  // reads 56 bytes

}  // namespace apollo::coldtier
