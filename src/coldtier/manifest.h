// Cold-tier manifest: the committed WAL→block mapping for one archive.
//
// The manifest is the commit point of compaction. A block file becomes
// durable data the instant a manifest referencing it lands via
// WriteManifestAtomic (temp file + fsync + rename + directory fsync);
// until then it is an orphan any recovery pass may delete, and the WAL
// segments it was built from are still the source of truth. A crash
// therefore leaves either the old manifest (WAL segments intact, orphan
// temp/block files swept on the next open) or the new manifest (block
// committed, covered WAL segments deleted idempotently on the next open)
// — never both representations, never neither.
//
// On-disk layout (little-endian, CRC32C):
//   u32 magic       "ACBM" (0x4D424341)
//   u32 version     currently 1
//   u32 entry_count (<= kMaxManifestEntries)
//   u32 header_crc  over the 12 bytes above
//   entry_count entries:
//     u64 first_wal_seq, u64 last_wal_seq   compacted WAL segment range
//     u64 row_count
//     ZoneMap (56 bytes, see block_format.h)
//     u16 name_len, name bytes               block file name (no directory)
//   u32 body_crc    over all entry bytes
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coldtier/block_format.h"
#include "common/expected.h"

namespace apollo::coldtier {

inline constexpr std::uint32_t kManifestMagic = 0x4D424341u;  // "ACBM"
inline constexpr std::uint32_t kManifestVersion = 1;
inline constexpr std::uint32_t kMaxManifestEntries = 1u << 20;
inline constexpr std::size_t kMaxBlockFileName = 4096;

struct ManifestEntry {
  std::uint64_t first_wal_seq = 0;
  std::uint64_t last_wal_seq = 0;
  std::uint64_t row_count = 0;
  ZoneMap zone;
  std::string block_file;  // file name relative to the manifest's directory
};

struct Manifest {
  std::vector<ManifestEntry> entries;
};

// Serializes the manifest to its on-disk image.
void EncodeManifest(const Manifest& manifest, std::vector<std::uint8_t>& out);

// Strict decoder (fuzzed): bounds-checked, CRC-validated, exact
// consumption, entries must cover increasing WAL sequence ranges.
bool DecodeManifest(const std::uint8_t* data, std::size_t size,
                    Manifest* out);

// Writes `manifest` to `path` atomically: encode to `path`.tmp, fsync the
// file, rename over `path`, fsync the directory.
Status WriteManifestAtomic(const std::string& path, const Manifest& manifest);

// Loads the manifest at `path`. A missing file decodes as an empty
// manifest (nothing compacted yet); a present-but-corrupt file is an
// error — the caller must not guess at what was committed.
Expected<Manifest> ReadManifest(const std::string& path);

}  // namespace apollo::coldtier
