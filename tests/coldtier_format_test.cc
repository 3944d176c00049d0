// Cold-block and manifest format hardening: table-driven damage sweeps
// prove the decoders reject every byte flip and truncation (or, for bytes
// outside any checksum's coverage, still return exactly the original
// rows), and that a corrupt block file on disk is quarantined by the
// tier — skipped, renamed, counted — never crashed on, never a source of
// invented rows.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "coldtier/block_format.h"
#include "coldtier/cold_tier.h"
#include "coldtier/manifest.h"
#include "common/rng.h"
#include "pubsub/archiver.h"
#include "pubsub/wal_format.h"

namespace apollo::coldtier {
namespace {

namespace fs = std::filesystem;

BlockColumns MakeRows(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  BlockColumns rows;
  std::uint64_t id = 1 + rng.NextBounded(100);
  TimeNs ts = static_cast<TimeNs>(rng.NextBounded(1u << 20));
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t ts_offset =
        rng.Bernoulli(0.1) ? -static_cast<std::int64_t>(rng.NextBounded(1000))
                           : 0;
    const double value = rng.Uniform(-1e6, 1e6);
    const Provenance provenance =
        rng.Bernoulli(0.2) ? Provenance::kPredicted : Provenance::kMeasured;
    rows.Push(id, Sample{ts, value, provenance}, ts_offset);
    id += 1 + rng.NextBounded(3);
    ts += static_cast<TimeNs>(rng.NextBounded(5000));
  }
  return rows;
}

bool SameRows(const BlockColumns& a, const BlockColumns& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const ColumnBuffer& sa = a.samples;
    const ColumnBuffer& sb = b.samples;
    if (a.ids[i] != b.ids[i] || sa.ts[i] != sb.ts[i] ||
        a.ts_offsets[i] != b.ts_offsets[i] ||
        sa.provenance[i] != sb.provenance[i]) {
      return false;
    }
    std::uint64_t bits_a = 0, bits_b = 0;
    std::memcpy(&bits_a, &sa.values[i], sizeof(bits_a));
    std::memcpy(&bits_b, &sb.values[i], sizeof(bits_b));
    if (bits_a != bits_b) return false;
  }
  return true;
}

double FromBits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Consecutive ids and timestamps carrying `values` in order.
BlockColumns RowsWithValues(const std::vector<double>& values) {
  BlockColumns rows;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const TimeNs ts = 5000 + static_cast<TimeNs>(i) * 1000;
    rows.Push(10 + i, Sample{ts, values[i], Provenance::kMeasured});
  }
  return rows;
}

// What a perfbench `monitor` block holds: one WAL segment's 1365 rows of
// one topic, ids and timestamps at a fixed cadence, values counting up.
BlockColumns MonitorShapedRows() {
  BlockColumns rows;
  for (std::uint64_t seq = 1365; seq < 2 * 1365; ++seq) {
    const TimeNs ts = 3'000'000'000'000 + static_cast<TimeNs>(seq) * 1000 + 7;
    rows.Push(seq,
              Sample{ts, static_cast<double>(seq), Provenance::kMeasured});
  }
  return rows;
}

// Value patterns that stress the buffered bit reader: full 64-bit XOR
// windows, leading-zero counts above the 5-bit field's 31, runs of equal
// values, NaN payloads, infinities, signed zero and denormals.
std::vector<BlockColumns> ValuePatternBlocks() {
  const double denorm_min = FromBits(1);
  const double denorm_max = FromBits(0x000FFFFFFFFFFFFFull);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> patterns;
  // XOR 0x8000000000000001 and all-ones: 64 significant bits.
  patterns.push_back({denorm_min, -0.0, denorm_min, -0.0,
                      FromBits(~0ull), 0.0, FromBits(~0ull)});
  // XORs in the low mantissa bits only: clz(x) up to 63.
  std::vector<double> low_bits;
  for (std::uint64_t i = 0; i < 70; ++i) {
    low_bits.push_back(FromBits(0x3FF0000000000000ull ^ (i * i * 0x9Bull)));
  }
  patterns.push_back(low_bits);
  // Runs of equal values between changes.
  std::vector<double> runs;
  for (int r = 0; r < 12; ++r) {
    for (int k = 0; k < r + 1; ++k) runs.push_back(r * 1.5);
  }
  patterns.push_back(runs);
  // NaN payloads (quiet, signalling, negative), infinities, signed zero,
  // denormals, mixed with ordinary values.
  patterns.push_back({FromBits(0x7FF8000000000001ull), 1.0,
                      FromBits(0x7FF0000000000001ull),
                      FromBits(0xFFF8000000000000ull), inf, -inf, -0.0, 0.0,
                      denorm_min, denorm_max, -denorm_min, 3.0, inf, inf,
                      FromBits(0x7FF8DEADBEEF0001ull)});
  std::vector<BlockColumns> blocks;
  for (const auto& values : patterns) blocks.push_back(RowsWithValues(values));
  blocks.push_back(MonitorShapedRows());
  return blocks;
}

TEST(ColdTierFormat, BlockRoundTrip) {
  std::vector<BlockColumns> blocks = ValuePatternBlocks();
  for (std::size_t n : {1u, 2u, 7u, 100u, 1000u}) {
    blocks.push_back(MakeRows(n, 0xB10C0000u + n));
  }
  // One buffer for every block, as a scan reuses it: a block decoded
  // after a larger one must come back without any of its rows.
  DecodedBlock decoded;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const BlockColumns& rows = blocks[b];
    std::vector<std::uint8_t> image;
    ASSERT_TRUE(EncodeBlock(rows, image));
    ASSERT_TRUE(DecodeBlock(image.data(), image.size(), &decoded))
        << "block " << b;
    EXPECT_TRUE(SameRows(rows, decoded.columns)) << "block " << b;
    EXPECT_EQ(decoded.zone, ComputeZoneMap(rows));
  }
}

// ---- canonical images ----------------------------------------------------
// An accepted image must be the one EncodeBlock writes for its rows. These
// helpers rebuild one column section of a valid image, so a test can swap
// in an encoding that decodes to the same rows but is not canonical.

constexpr std::size_t kIdsSection = 0;
constexpr std::size_t kValuesSection = 3;

std::vector<std::vector<std::uint8_t>> Sections(
    const std::vector<std::uint8_t>& image) {
  std::vector<std::vector<std::uint8_t>> sections;
  std::size_t pos = kBlockHeaderSize + kZoneMapSize;
  while (pos + 8 <= image.size()) {
    const std::uint32_t len = GetU32(image.data() + pos);
    sections.emplace_back(image.begin() + pos + 8,
                          image.begin() + pos + 8 + len);
    pos += 8 + len;
  }
  return sections;
}

std::vector<std::uint8_t> WithSection(
    const std::vector<std::uint8_t>& image, std::size_t index,
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::vector<std::uint8_t>> sections = Sections(image);
  sections.at(index) = payload;
  const std::size_t prefix = kBlockHeaderSize + kZoneMapSize;
  std::vector<std::uint8_t> out(image.begin(), image.begin() + prefix);
  for (const auto& section : sections) {
    PutU32(out, static_cast<std::uint32_t>(section.size()));
    PutU32(out, wal::Crc32c(section.data(), section.size()));
    out.insert(out.end(), section.begin(), section.end());
  }
  return out;
}

// MSB-first bit packer for hand-built value sections.
class Bits {
 public:
  void Put(std::uint64_t v, int n) {
    for (int i = n - 1; i >= 0; --i) bits_.push_back((v >> i) & 1);
  }
  std::vector<std::uint8_t> Bytes() const {
    std::vector<std::uint8_t> out((bits_.size() + 7) / 8, 0);
    for (std::size_t i = 0; i < bits_.size(); ++i) {
      if (bits_[i]) out[i / 8] |= static_cast<std::uint8_t>(0x80 >> (i % 8));
    }
    return out;
  }

 private:
  std::vector<bool> bits_;
};

std::uint64_t BitsOf(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Writes one value as a new explicit window: control bits '11', `lead`,
// `sig - 1`, then the `sig` bits of XOR `x` below its `lead` leading bits.
void PutWindow(Bits& bits, std::uint64_t x, int lead, int sig) {
  bits.Put(0b11, 2);
  bits.Put(static_cast<std::uint64_t>(lead), 5);
  bits.Put(static_cast<std::uint64_t>(sig - 1), 6);
  bits.Put(x >> (64 - lead - sig), sig);
}

// Images that decode to the right rows but are not canonical:
//  - the ids section's first varint padded with a 0x80 0x00 tail;
//  - a Gorilla window with a trailing zero bit;
//  - a new Gorilla window where the previous one fits.
// Each is returned with its rows' canonical image.
struct NonCanonical {
  std::vector<std::uint8_t> canonical;
  std::vector<std::uint8_t> image;
};

NonCanonical NonMinimalVarintImage() {
  const BlockColumns rows = RowsWithValues({1.0, 2.0, 3.0});
  NonCanonical out;
  EXPECT_TRUE(EncodeBlock(rows, out.canonical));
  std::vector<std::uint8_t> ids = Sections(out.canonical).at(kIdsSection);
  EXPECT_EQ(ids.at(0), rows.ids[0]);  // first id fits one byte
  ids[0] |= 0x80;
  ids.insert(ids.begin() + 1, 0x00);
  out.image = WithSection(out.canonical, kIdsSection, ids);
  return out;
}

NonCanonical TrailingZeroWindowImage() {
  // 1.0 ^ 1.5 = 0x0008000000000000: lead 12, one significant bit, so a
  // two-bit window would end in a zero.
  const BlockColumns rows = RowsWithValues({1.0, 1.5});
  NonCanonical out;
  EXPECT_TRUE(EncodeBlock(rows, out.canonical));
  const std::uint64_t x = BitsOf(1.0) ^ BitsOf(1.5);
  Bits canonical_bits, bits;
  canonical_bits.Put(BitsOf(1.0), 64);
  PutWindow(canonical_bits, x, 12, 1);
  EXPECT_EQ(canonical_bits.Bytes(), Sections(out.canonical).at(kValuesSection));
  bits.Put(BitsOf(1.0), 64);
  PutWindow(bits, x, 12, 2);
  out.image = WithSection(out.canonical, kValuesSection, bits.Bytes());
  return out;
}

NonCanonical NeedlessWindowImage() {
  // 1.0 -> 1.75 opens window (lead 12, sig 2); 1.75 -> 1.5 flips one bit
  // inside it, so the encoder reuses that window.
  const BlockColumns rows = RowsWithValues({1.0, 1.75, 1.5});
  NonCanonical out;
  EXPECT_TRUE(EncodeBlock(rows, out.canonical));
  const std::uint64_t x1 = BitsOf(1.0) ^ BitsOf(1.75);
  const std::uint64_t x2 = BitsOf(1.75) ^ BitsOf(1.5);
  Bits canonical_bits, bits;
  canonical_bits.Put(BitsOf(1.0), 64);
  PutWindow(canonical_bits, x1, 12, 2);
  canonical_bits.Put(0b10, 2);
  canonical_bits.Put(x2 >> (64 - 12 - 2), 2);
  EXPECT_EQ(canonical_bits.Bytes(), Sections(out.canonical).at(kValuesSection));
  bits.Put(BitsOf(1.0), 64);
  PutWindow(bits, x1, 12, 2);
  PutWindow(bits, x2, 13, 1);  // x2's own exact window, but x1's fits
  out.image = WithSection(out.canonical, kValuesSection, bits.Bytes());
  return out;
}

TEST(ColdTierFormat, NonCanonicalImagesRejected) {
  const std::pair<const char*, NonCanonical> cases[] = {
      {"non-minimal varint", NonMinimalVarintImage()},
      {"window with a trailing zero bit", TrailingZeroWindowImage()},
      {"new window where the previous fits", NeedlessWindowImage()},
  };
  for (const auto& [name, images] : cases) {
    SCOPED_TRACE(name);
    DecodedBlock decoded;
    ASSERT_TRUE(DecodeBlock(images.canonical.data(), images.canonical.size(),
                            &decoded));
    EXPECT_NE(images.image, images.canonical);
    EXPECT_FALSE(DecodeBlock(images.image.data(), images.image.size(),
                             &decoded));
  }
}

TEST(ColdTierFormat, EmptyBlockRejected) {
  std::vector<std::uint8_t> image;
  EXPECT_FALSE(EncodeBlock(BlockColumns{}, image));
  DecodedBlock decoded;
  EXPECT_FALSE(DecodeBlock(nullptr, 0, &decoded));
}

// Flip every single byte of a valid block image: the decoder must reject
// every one. Each byte is covered by a checksum or an explicit structural
// check (the zone pad must be zero), so damage is always detectable.
TEST(ColdTierFormat, BlockByteFlipSweep) {
  const BlockColumns rows = MakeRows(64, 0xF11Fu);
  std::vector<std::uint8_t> image;
  ASSERT_TRUE(EncodeBlock(rows, image));

  for (std::size_t pos = 0; pos < image.size(); ++pos) {
    std::vector<std::uint8_t> damaged = image;
    damaged[pos] ^= 0xFF;
    DecodedBlock decoded;
    EXPECT_FALSE(DecodeBlock(damaged.data(), damaged.size(), &decoded))
        << "flip at byte " << pos << " accepted";
  }
}

// Single-bit flips across randomized positions, mirroring the WAL sweep.
TEST(ColdTierFormat, BlockBitFlipSweep) {
  const BlockColumns rows = MakeRows(48, 0xB17Bu);
  std::vector<std::uint8_t> image;
  ASSERT_TRUE(EncodeBlock(rows, image));
  Rng rng(0x5EEDB17u);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> damaged = image;
    const std::size_t pos = rng.NextBounded(damaged.size());
    damaged[pos] ^= static_cast<std::uint8_t>(1u << rng.NextBounded(8));
    DecodedBlock decoded;
    EXPECT_FALSE(DecodeBlock(damaged.data(), damaged.size(), &decoded))
        << "bit flip at " << pos << " accepted";
  }
}

// Every strict prefix of a block image must be rejected: the format has
// no optional tail, so truncation is always detectable.
TEST(ColdTierFormat, BlockTruncationSweep) {
  const BlockColumns rows = MakeRows(32, 0x7817u);
  std::vector<std::uint8_t> image;
  ASSERT_TRUE(EncodeBlock(rows, image));
  for (std::size_t len = 0; len < image.size(); ++len) {
    DecodedBlock decoded;
    EXPECT_FALSE(DecodeBlock(image.data(), len, &decoded))
        << "truncation to " << len << " bytes decoded";
  }
  // Trailing garbage must be rejected too (exact-consumption check).
  std::vector<std::uint8_t> padded = image;
  padded.push_back(0);
  DecodedBlock decoded;
  EXPECT_FALSE(DecodeBlock(padded.data(), padded.size(), &decoded));
}

// The 80-byte prefix (header + zone region) can be decoded standalone for
// pruning; its verdict must agree with the full decoder.
TEST(ColdTierFormat, ZoneMapPrefixAgreesWithFullDecode) {
  const BlockColumns rows = MakeRows(16, 0x20E7u);
  std::vector<std::uint8_t> image;
  ASSERT_TRUE(EncodeBlock(rows, image));
  std::uint32_t row_count = 0;
  ZoneMap zone;
  ASSERT_TRUE(DecodeZoneMap(image.data(), image.size(), &row_count, &zone));
  EXPECT_EQ(row_count, rows.size());
  EXPECT_EQ(zone, ComputeZoneMap(rows));
}

Manifest MakeManifest(std::size_t entries) {
  Manifest manifest;
  std::uint64_t seq = 1;
  for (std::size_t i = 0; i < entries; ++i) {
    ManifestEntry entry;
    entry.first_wal_seq = seq;
    entry.last_wal_seq = seq;
    entry.row_count = 10 + i;
    entry.zone = ComputeZoneMap(MakeRows(4, 0xAB00u + i));
    entry.block_file = "metric.log." + std::to_string(seq) + ".blk";
    manifest.entries.push_back(entry);
    seq += 1 + (i % 3);
  }
  return manifest;
}

TEST(ColdTierFormat, ManifestRoundTrip) {
  for (std::size_t n : {0u, 1u, 5u, 64u}) {
    const Manifest manifest = MakeManifest(n);
    std::vector<std::uint8_t> image;
    EncodeManifest(manifest, image);
    Manifest decoded;
    ASSERT_TRUE(DecodeManifest(image.data(), image.size(), &decoded));
    ASSERT_EQ(decoded.entries.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(decoded.entries[i].first_wal_seq,
                manifest.entries[i].first_wal_seq);
      EXPECT_EQ(decoded.entries[i].row_count, manifest.entries[i].row_count);
      EXPECT_EQ(decoded.entries[i].block_file,
                manifest.entries[i].block_file);
      EXPECT_EQ(decoded.entries[i].zone, manifest.entries[i].zone);
    }
  }
}

TEST(ColdTierFormat, ManifestByteFlipSweep) {
  const Manifest manifest = MakeManifest(8);
  std::vector<std::uint8_t> image;
  EncodeManifest(manifest, image);
  for (std::size_t pos = 0; pos < image.size(); ++pos) {
    std::vector<std::uint8_t> damaged = image;
    damaged[pos] ^= 0xFF;
    Manifest decoded;
    EXPECT_FALSE(DecodeManifest(damaged.data(), damaged.size(), &decoded))
        << "flip at byte " << pos << " accepted";
  }
}

TEST(ColdTierFormat, ManifestTruncationSweep) {
  const Manifest manifest = MakeManifest(6);
  std::vector<std::uint8_t> image;
  EncodeManifest(manifest, image);
  for (std::size_t len = 0; len < image.size(); ++len) {
    Manifest decoded;
    EXPECT_FALSE(DecodeManifest(image.data(), len, &decoded))
        << "truncation to " << len << " accepted";
  }
}

TEST(ColdTierFormat, ManifestRejectsHostileNames) {
  Manifest manifest = MakeManifest(1);
  manifest.entries[0].block_file = "../../etc/evil";
  std::vector<std::uint8_t> image;
  EncodeManifest(manifest, image);
  Manifest decoded;
  EXPECT_FALSE(DecodeManifest(image.data(), image.size(), &decoded));
}

// Corrupt block on disk: the tier skips it, renames it `.corrupt`, counts
// it — and never crashes or returns rows it cannot vouch for.
TEST(ColdTierFormat, CorruptBlockQuarantined) {
  const std::string dir =
      testing::TempDir() + "/coldtier_quarantine_" +
      std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string base = dir + "/metric.log";

  WalConfig config;
  config.segment_bytes =
      wal::kHeaderSize +
      4 * (wal::kFrameOverhead + sizeof(Archiver<Sample>::Record));
  Archiver<Sample> archiver(base, config);
  ASSERT_TRUE(archiver.OpenStatus().ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(archiver
                    .Append(static_cast<std::uint64_t>(i), Seconds(i + 1),
                            Sample{Seconds(i + 1), static_cast<double>(i),
                                   Provenance::kMeasured})
                    .ok());
  }

  ColdTier cold(base);
  ASSERT_TRUE(cold.Open().ok());
  auto compacted = cold.CompactOnce(archiver);
  ASSERT_TRUE(compacted.ok()) << compacted.error().message();
  ASSERT_GE(cold.BlockCount(), 2u);

  // Smash a byte in the middle of the first block's column data.
  const std::string victim = cold.BlockPaths().front();
  {
    std::FILE* f = std::fopen(victim.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 100, SEEK_SET);
    std::fputc(0xEE, f);
    std::fclose(f);
  }

  const std::uint64_t blocks_before = cold.BlockCount();
  ColdScanStats stats;
  std::uint64_t rows_seen = 0;
  Status scanned = cold.ScanRange(
      0, Seconds(1000),
      [&](std::uint64_t, TimeNs, const Sample&) { ++rows_seen; }, &stats);
  EXPECT_TRUE(scanned.ok());
  EXPECT_EQ(cold.quarantined_blocks(), 1u);
  EXPECT_EQ(cold.BlockCount(), blocks_before - 1);
  EXPECT_TRUE(fs::exists(victim + ".corrupt"));
  EXPECT_FALSE(fs::exists(victim));
  // Rows from healthy blocks only; none invented from the corrupt one.
  EXPECT_LT(rows_seen, 20u);
  for (const std::string& path : cold.BlockPaths()) {
    EXPECT_NE(path, victim);
  }

  // The quarantine sticks: a second scan skips the block without touching
  // the counter again.
  ColdScanStats stats2;
  std::uint64_t rows_again = 0;
  EXPECT_TRUE(cold.ScanRange(0, Seconds(1000),
                             [&](std::uint64_t, TimeNs, const Sample&) {
                               ++rows_again;
                             },
                             &stats2)
                  .ok());
  EXPECT_EQ(rows_again, rows_seen);
  EXPECT_EQ(cold.quarantined_blocks(), 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace apollo::coldtier
