// Fuzz target for the cold-tier decoders (coldtier::DecodeBlock,
// coldtier::DecodeZoneMap, coldtier::DecodeManifest) — the code that
// parses untrusted on-disk bytes when blocks are scanned and the manifest
// is loaded. The decoders must never read out of bounds, and anything
// they accept must be canonical: re-encoding the decoded value must
// reproduce the input bytes exactly, so a decoded block can always be
// audited against its checksums.
//
// Build with -DAPOLLO_FUZZ=ON. When the toolchain supports
// -fsanitize=fuzzer this links against libFuzzer; otherwise a standalone
// driver main() replays corpus files passed on the command line, so the
// target still builds (and CI exercises the build) on plain GCC.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "coldtier/block_format.h"
#include "coldtier/manifest.h"

namespace {

void CheckBlockInvariants(const std::uint8_t* data, std::size_t size) {
  using namespace apollo::coldtier;

  DecodedBlock decoded;
  const bool block_ok = DecodeBlock(data, size, &decoded);

  std::uint32_t row_count = 0;
  ZoneMap zone;
  const bool zone_ok = DecodeZoneMap(data, size, &row_count, &zone);

  if (block_ok) {
    const BlockColumns& rows = decoded.columns;
    // The standalone zone-map prefix decoder must agree with the full
    // decode on every accepted input.
    if (!zone_ok) __builtin_trap();
    if (rows.size() != row_count) __builtin_trap();
    if (!(decoded.zone == zone)) __builtin_trap();
    if (rows.size() == 0) __builtin_trap();

    // Every column holds every row; ids strictly increasing; zone map
    // conservative for every row.
    const apollo::ColumnBuffer& samples = rows.samples;
    if (samples.size() != row_count || samples.values.size() != row_count ||
        samples.provenance.size() != row_count ||
        rows.ts_offsets.size() != row_count) {
      __builtin_trap();
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i > 0 && rows.ids[i] <= rows.ids[i - 1]) __builtin_trap();
      if (samples.ts[i] < zone.min_ts || samples.ts[i] > zone.max_ts) {
        __builtin_trap();
      }
    }

    // Canonical: the accepted image must be the one and only encoding of
    // its rows. (Rules out decoder laxness: non-canonical varints, sloppy
    // bit padding, non-maximal RLE runs would all break this.)
    std::vector<std::uint8_t> reencoded;
    if (!EncodeBlock(rows, reencoded)) __builtin_trap();
    if (reencoded.size() != size) __builtin_trap();
    if (std::memcmp(reencoded.data(), data, size) != 0) __builtin_trap();
  }
}

void CheckManifestInvariants(const std::uint8_t* data, std::size_t size) {
  using namespace apollo::coldtier;

  Manifest manifest;
  if (!DecodeManifest(data, size, &manifest)) return;

  std::uint64_t prev_last = 0;
  for (const ManifestEntry& entry : manifest.entries) {
    // Sequence ranges valid and strictly increasing; names are plain
    // file names (a hostile manifest must not escape its directory).
    if (entry.first_wal_seq == 0) __builtin_trap();
    if (entry.last_wal_seq < entry.first_wal_seq) __builtin_trap();
    if (entry.first_wal_seq <= prev_last) __builtin_trap();
    if (entry.row_count == 0) __builtin_trap();
    if (entry.block_file.empty()) __builtin_trap();
    if (entry.block_file.find('/') != std::string::npos) __builtin_trap();
    prev_last = entry.last_wal_seq;
  }

  // Canonical round trip, same as blocks.
  std::vector<std::uint8_t> reencoded;
  EncodeManifest(manifest, reencoded);
  if (reencoded.size() != size) __builtin_trap();
  if (std::memcmp(reencoded.data(), data, size) != 0) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  CheckBlockInvariants(data, size);
  CheckManifestInvariants(data, size);
  return 0;
}

#if !defined(APOLLO_FUZZ_LIBFUZZER)
// Standalone corpus driver: replays each file argument through the target
// once. Keeps the target buildable/testable without libFuzzer.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::FILE* f = std::fopen(argv[i], "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 1;
    }
    std::vector<std::uint8_t> buf;
    std::uint8_t chunk[4096];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      buf.insert(buf.end(), chunk, chunk + n);
    }
    std::fclose(f);
    LLVMFuzzerTestOneInput(buf.data(), buf.size());
    std::printf("ok %s (%zu bytes)\n", argv[i], buf.size());
  }
  return 0;
}
#endif
