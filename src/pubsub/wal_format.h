// WAL segment format for the Archiver's crash-safe on-disk log.
//
// A segment file is a fixed header followed by length-prefixed, CRC32C-
// checksummed records (all integers little-endian):
//
//   SegmentHeader (16 bytes):
//     u32 magic        "AWAL" (0x4C415741)
//     u32 version      format version (currently 1)
//     u32 payload_size expected record payload size; 0 = variable-length
//     u32 header_crc   CRC32C over the first 12 bytes
//   Record frame (8 + length bytes), repeated:
//     u32 length       payload byte count
//     u32 crc          CRC32C over the payload bytes
//     u8  payload[length]
//
// The scanner walks a buffer front to back and stops at the first frame
// that does not fully parse: short header, length out of bounds, length
// mismatching a fixed payload_size, a frame extending past the buffer
// (torn tail), or a CRC mismatch. Everything before that point is the
// valid prefix; everything after is unrecoverable without record sync
// markers and is reported as dropped bytes so the caller can truncate or
// quarantine. The scanner never reads past `size` — it is the fuzz target
// behind APOLLO_FUZZ.
#pragma once

#include <cstdint>
#include <cstddef>
#include <functional>

namespace apollo::wal {

inline constexpr std::uint32_t kMagic = 0x4C415741u;  // "AWAL"
inline constexpr std::uint32_t kVersion = 1;
inline constexpr std::size_t kHeaderSize = 16;
inline constexpr std::size_t kFrameOverhead = 8;  // u32 length + u32 crc
// Upper bound on a record payload: rejects absurd lengths produced by
// corrupt length fields before they can drive a huge read.
inline constexpr std::uint32_t kMaxRecordLen = 1u << 20;

// CRC32C (Castagnoli). `seed` chains partial computations. Uses the
// SSE4.2 crc32 instruction when the CPU has it, else Crc32cPortable.
std::uint32_t Crc32c(const void* data, std::size_t len,
                     std::uint32_t seed = 0);

// The slicing-by-8 table walk: the same function on every CPU. Crc32c
// runs it wherever SSE4.2 is missing; tests run it everywhere.
std::uint32_t Crc32cPortable(const void* data, std::size_t len,
                             std::uint32_t seed = 0);

// Writes a 16-byte segment header into `out` (at least kHeaderSize bytes).
void EncodeHeader(std::uint8_t* out, std::uint32_t payload_size);

// Validates magic, version, and header CRC. On success stores the
// segment's payload_size hint. Returns false for anything malformed.
bool DecodeHeader(const std::uint8_t* data, std::size_t size,
                  std::uint32_t* payload_size);

// Appends one record frame (length, crc, payload) for `payload` to `out`
// (at least kFrameOverhead + len bytes). Returns the frame size.
std::size_t EncodeRecord(std::uint8_t* out, const void* payload,
                         std::uint32_t len);

struct ScanResult {
  bool header_ok = false;   // magic/version/header CRC all valid
  bool clean = false;       // header_ok and no dropped bytes
  std::uint64_t records = 0;      // fully valid records visited
  std::uint64_t valid_bytes = 0;  // header + valid record frames
  std::uint64_t dropped_bytes = 0;  // size - valid_bytes (torn/corrupt)
};

// Scans a whole segment image. `visit` (may be null) is called once per
// valid record with the payload bytes, in order. A bad header yields
// header_ok = false with every byte dropped.
ScanResult ScanBuffer(
    const std::uint8_t* data, std::size_t size,
    const std::function<void(const std::uint8_t* payload,
                             std::uint32_t len)>& visit = nullptr);

// Checks the record frame at the front of data[0, size) under the
// scanner's rules, for a segment whose header carries `payload_size`.
// Returns the frame's length in bytes, or 0 where the scanner stops. The
// archiver's reads walk frames with it, since they may start past a
// segment's header.
std::size_t CheckFrame(const std::uint8_t* data, std::size_t size,
                       std::uint32_t payload_size);

}  // namespace apollo::wal
