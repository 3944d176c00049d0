#include "coldtier/block_format.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/exact_sum.h"
#include "pubsub/wal_format.h"

namespace apollo::coldtier {

namespace {

// ---------------------------------------------------------------------------
// Primitive codecs. All readers take (data, size, pos) and fail instead of
// reading past `size`; all arithmetic on timestamps is done in uint64 so
// deltas wrap as two's complement without signed overflow.
// ---------------------------------------------------------------------------

std::uint64_t ZigZag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t UnZigZag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void PutVarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

// `inline` keeps this on every column decoder's hot loop: without it the
// canonical checks push it past GCC's automatic inlining limit.
inline bool GetVarint(const std::uint8_t* data, std::size_t size,
                      std::size_t* pos, std::uint64_t* v) {
  std::uint64_t result = 0;
  int shift = 0;
  while (*pos < size && shift < 64) {
    const std::uint8_t byte = data[(*pos)++];
    result |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // Only the minimal encoding is canonical: a zero final byte after a
      // continuation (0x80 0x00) and tails that overflow 64 bits are not.
      if (shift > 0 && byte == 0) return false;
      if (shift == 63 && byte > 1) return false;
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

class BitWriter {
 public:
  explicit BitWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  // Appends the low `n` bits of `v`, most significant first.
  void Write(std::uint64_t v, int n) {
    for (int i = n - 1; i >= 0; --i) {
      acc_ = (acc_ << 1) | ((v >> i) & 1);
      if (++filled_ == 8) {
        out_.push_back(static_cast<std::uint8_t>(acc_));
        acc_ = 0;
        filled_ = 0;
      }
    }
  }

  void Finish() {
    if (filled_ > 0) {
      out_.push_back(static_cast<std::uint8_t>(acc_ << (8 - filled_)));
      acc_ = 0;
      filled_ = 0;
    }
  }

 private:
  std::vector<std::uint8_t>& out_;
  std::uint64_t acc_ = 0;
  int filled_ = 0;
};

// Reads MSB-first bit fields through a 64-bit buffer: `acc_` holds the
// next `avail_` unread bits left-aligned (the bits below them are zero),
// and a refill tops it up a byte at a time until it holds more than
// kMaxTake bits or the stream ends. No shift count ever reaches 64.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  // Reads `n` bits, 1 <= n <= 64. Fails when fewer than `n` bits remain.
  bool Read(int n, std::uint64_t* v) {
    if (n > kMaxTake) {
      std::uint64_t hi = 0, lo = 0;
      if (BitsLeft() < static_cast<std::size_t>(n) || !Read(n - 32, &hi) ||
          !Read(32, &lo)) {
        return false;
      }
      *v = (hi << 32) | lo;
      return true;
    }
    if (n > avail_) {
      Refill();
      if (n > avail_) return false;
    }
    *v = acc_ >> (64 - n);
    acc_ <<= n;
    avail_ -= n;
    return true;
  }

  // Trailing padding must be under one byte and all zero: anything else
  // means the stream and the row count disagree.
  bool AtCleanEnd() {
    const std::size_t left = BitsLeft();
    if (left >= 8) return false;
    std::uint64_t pad = 0;
    if (left > 0 && !Read(static_cast<int>(left), &pad)) return false;
    return pad == 0;
  }

 private:
  // A refill leaves more than this many bits buffered when the stream has
  // them, so a read of up to kMaxTake bits needs at most one refill.
  static constexpr int kMaxTake = 56;

  std::size_t BitsLeft() const {
    return static_cast<std::size_t>(avail_) + (size_ - next_) * 8;
  }

  void Refill() {
    while (avail_ <= kMaxTake && next_ < size_) {
      acc_ |= static_cast<std::uint64_t>(data_[next_++]) << (kMaxTake - avail_);
      avail_ += 8;
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t next_ = 0;  // first byte not yet in acc_
  std::uint64_t acc_ = 0;
  int avail_ = 0;
};

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsToDouble(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// ---------------------------------------------------------------------------
// Column encoders/decoders. Decoders get the exact section payload and must
// consume it fully.
// ---------------------------------------------------------------------------

void EncodeIds(const std::vector<std::uint64_t>& ids,
               std::vector<std::uint8_t>& out) {
  PutVarint(out, ids[0]);
  for (std::size_t i = 1; i < ids.size(); ++i) {
    PutVarint(out, ids[i] - ids[i - 1]);
  }
}

bool DecodeIds(const std::uint8_t* data, std::size_t size,
               std::vector<std::uint64_t>& ids) {
  std::size_t pos = 0;
  std::uint64_t v = 0;
  if (!GetVarint(data, size, &pos, &v)) return false;
  ids[0] = v;
  for (std::size_t i = 1; i < ids.size(); ++i) {
    if (!GetVarint(data, size, &pos, &v)) return false;
    if (v == 0) return false;  // ids must strictly increase
    ids[i] = ids[i - 1] + v;
    if (ids[i] < ids[i - 1]) return false;  // wrapped
  }
  return pos == size;
}

void EncodeTimestamps(const std::vector<TimeNs>& ts,
                      std::vector<std::uint8_t>& out) {
  PutVarint(out, ZigZag(ts[0]));
  std::uint64_t prev_delta = 0;
  for (std::size_t i = 1; i < ts.size(); ++i) {
    const std::uint64_t delta = static_cast<std::uint64_t>(ts[i]) -
                                static_cast<std::uint64_t>(ts[i - 1]);
    const std::uint64_t dod = delta - prev_delta;
    PutVarint(out, ZigZag(static_cast<std::int64_t>(dod)));
    prev_delta = delta;
  }
}

bool DecodeTimestamps(const std::uint8_t* data, std::size_t size,
                      std::vector<TimeNs>& ts) {
  std::size_t pos = 0;
  std::uint64_t v = 0;
  if (!GetVarint(data, size, &pos, &v)) return false;
  ts[0] = UnZigZag(v);
  std::uint64_t prev_delta = 0;
  for (std::size_t i = 1; i < ts.size(); ++i) {
    if (!GetVarint(data, size, &pos, &v)) return false;
    const std::uint64_t delta =
        prev_delta + static_cast<std::uint64_t>(UnZigZag(v));
    ts[i] = static_cast<TimeNs>(static_cast<std::uint64_t>(ts[i - 1]) + delta);
    prev_delta = delta;
  }
  return pos == size;
}

void EncodeSampleTsOffsets(const std::vector<std::int64_t>& offsets,
                           std::vector<std::uint8_t>& out) {
  for (const std::int64_t offset : offsets) PutVarint(out, ZigZag(offset));
}

bool DecodeSampleTsOffsets(const std::uint8_t* data, std::size_t size,
                           std::vector<std::int64_t>& offsets) {
  std::size_t pos = 0;
  std::uint64_t v = 0;
  for (std::int64_t& offset : offsets) {
    if (!GetVarint(data, size, &pos, &v)) return false;
    offset = UnZigZag(v);
  }
  return pos == size;
}

void EncodeValues(const std::vector<double>& values,
                  std::vector<std::uint8_t>& out) {
  BitWriter writer(out);
  std::uint64_t prev = DoubleBits(values[0]);
  writer.Write(prev, 64);
  int prev_lead = -1;
  int prev_sig = 0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    const std::uint64_t bits = DoubleBits(values[i]);
    const std::uint64_t x = bits ^ prev;
    prev = bits;
    if (x == 0) {
      writer.Write(0, 1);
      continue;
    }
    int lead = __builtin_clzll(x);
    const int trail = __builtin_ctzll(x);
    if (lead > 31) lead = 31;  // 5-bit field
    const int sig = 64 - lead - trail;
    writer.Write(1, 1);
    if (prev_lead >= 0 && lead >= prev_lead &&
        lead + sig <= prev_lead + prev_sig) {
      // Fits in the previous window: reuse it.
      writer.Write(0, 1);
      writer.Write(x >> (64 - prev_lead - prev_sig), prev_sig);
    } else {
      writer.Write(1, 1);
      writer.Write(static_cast<std::uint64_t>(lead), 5);
      writer.Write(static_cast<std::uint64_t>(sig - 1), 6);
      writer.Write(x >> trail, sig);
      prev_lead = lead;
      prev_sig = sig;
    }
  }
  writer.Finish();
}

bool DecodeValues(const std::uint8_t* data, std::size_t size,
                  std::vector<double>& values) {
  BitReader reader(data, size);
  std::uint64_t prev = 0;
  if (!reader.Read(64, &prev)) return false;
  values[0] = BitsToDouble(prev);
  int prev_lead = -1;
  int prev_sig = 0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    std::uint64_t bit = 0;
    if (!reader.Read(1, &bit)) return false;
    if (bit == 0) {
      values[i] = BitsToDouble(prev);
      continue;
    }
    if (!reader.Read(1, &bit)) return false;
    const bool new_window = bit != 0;
    int lead = prev_lead;
    int sig = prev_sig;
    if (new_window) {
      std::uint64_t lead_bits = 0, sig_minus_1 = 0;
      if (!reader.Read(5, &lead_bits)) return false;
      if (!reader.Read(6, &sig_minus_1)) return false;
      lead = static_cast<int>(lead_bits);
      sig = static_cast<int>(sig_minus_1) + 1;
      if (lead + sig > 64) return false;
    } else if (prev_lead < 0) {
      return false;  // window reuse before any window was defined
    }
    std::uint64_t sigbits = 0;
    if (!reader.Read(sig, &sigbits)) return false;
    if (sigbits == 0) return false;  // '1' control bit promised a change
    const std::uint64_t x = sigbits << (64 - lead - sig);
    if (new_window) {
      // Canonical only as EncodeValues writes it: the window is exactly
      // x's (leading zeros capped at 31, no zero bit at either end), and
      // the previous window could not have held x. Any x a reused window
      // holds is canonical.
      const int x_lead = std::min(__builtin_clzll(x), 31);
      if (lead != x_lead || 64 - lead - sig != __builtin_ctzll(x)) {
        return false;
      }
      if (prev_lead >= 0 && x_lead >= prev_lead &&
          lead + sig <= prev_lead + prev_sig) {
        return false;
      }
      prev_lead = lead;
      prev_sig = sig;
    }
    prev ^= x;
    values[i] = BitsToDouble(prev);
  }
  return reader.AtCleanEnd();
}

void EncodeProvenance(const std::vector<Provenance>& provenance,
                      std::vector<std::uint8_t>& out) {
  std::size_t i = 0;
  while (i < provenance.size()) {
    std::size_t run = 1;
    while (i + run < provenance.size() &&
           provenance[i + run] == provenance[i]) {
      ++run;
    }
    PutVarint(out, run);
    out.push_back(static_cast<std::uint8_t>(provenance[i]));
    i += run;
  }
}

bool DecodeProvenance(const std::uint8_t* data, std::size_t size,
                      std::vector<Provenance>& provenance) {
  std::size_t pos = 0;
  std::size_t row = 0;
  while (row < provenance.size()) {
    std::uint64_t run = 0;
    if (!GetVarint(data, size, &pos, &run)) return false;
    if (run == 0 || run > provenance.size() - row) return false;
    if (pos >= size) return false;
    const auto value = static_cast<Provenance>(data[pos++]);
    // Runs must be maximal or the encoding is not canonical.
    if (row > 0 && provenance[row - 1] == value) return false;
    for (std::uint64_t i = 0; i < run; ++i) provenance[row++] = value;
  }
  return pos == size;
}

void PutSection(std::vector<std::uint8_t>& out,
                const std::vector<std::uint8_t>& payload) {
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  PutU32(out, wal::Crc32c(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

// Validates framing + CRC of the section at *pos and returns its payload.
bool GetSection(const std::uint8_t* data, std::size_t size, std::size_t* pos,
                const std::uint8_t** payload, std::size_t* payload_size) {
  if (size - *pos < 8) return false;
  const std::uint32_t len = GetU32(data + *pos);
  const std::uint32_t crc = GetU32(data + *pos + 4);
  if (len > kMaxSectionLen || len > size - *pos - 8) return false;
  const std::uint8_t* body = data + *pos + 8;
  if (wal::Crc32c(body, len) != crc) return false;
  *payload = body;
  *payload_size = len;
  *pos += 8 + len;
  return true;
}

}  // namespace

double ZoneMap::min_value() const { return BitsToDouble(min_value_bits); }
double ZoneMap::max_value() const { return BitsToDouble(max_value_bits); }
double ZoneMap::sum_value() const { return BitsToDouble(sum_value_bits); }

bool ZoneMap::operator==(const ZoneMap& other) const {
  return min_ts == other.min_ts && max_ts == other.max_ts &&
         min_value_bits == other.min_value_bits &&
         max_value_bits == other.max_value_bits &&
         sum_value_bits == other.sum_value_bits &&
         first_id == other.first_id && last_id == other.last_id;
}

ZoneMap ComputeZoneMap(const BlockColumns& rows) {
  ZoneMap zone;
  if (rows.size() == 0) return zone;
  const std::vector<TimeNs>& ts = rows.samples.ts;
  zone.min_ts = *std::min_element(ts.begin(), ts.end());
  zone.max_ts = *std::max_element(ts.begin(), ts.end());
  double min_v = std::numeric_limits<double>::infinity();
  double max_v = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  // NaNs are ignored and -0.0 orders below +0.0 (OrdersBelow).
  // std::fmin/fmax may return either zero when the operands differ only in
  // sign (GCC's inlined builtin and libm differ), which would make the
  // bits, and so DecodeBlock's zone-map re-check, depend on the build.
  for (const double value : rows.samples.values) {
    if (!std::isnan(value)) {
      if (OrdersBelow(value, min_v)) min_v = value;
      if (OrdersBelow(max_v, value)) max_v = value;
    }
    sum += value;
  }
  zone.min_value_bits = DoubleBits(min_v);
  zone.max_value_bits = DoubleBits(max_v);
  zone.sum_value_bits = DoubleBits(sum);
  zone.first_id = rows.ids.front();
  zone.last_id = rows.ids.back();
  return zone;
}

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  PutU32(out, static_cast<std::uint32_t>(v));
  PutU32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t GetU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t GetU64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(GetU32(p)) |
         (static_cast<std::uint64_t>(GetU32(p + 4)) << 32);
}

void PutZone(std::vector<std::uint8_t>& out, const ZoneMap& zone) {
  PutU64(out, static_cast<std::uint64_t>(zone.min_ts));
  PutU64(out, static_cast<std::uint64_t>(zone.max_ts));
  PutU64(out, zone.min_value_bits);
  PutU64(out, zone.max_value_bits);
  PutU64(out, zone.sum_value_bits);
  PutU64(out, zone.first_id);
  PutU64(out, zone.last_id);
}

ZoneMap GetZone(const std::uint8_t* p) {
  ZoneMap zone;
  zone.min_ts = static_cast<TimeNs>(GetU64(p));
  zone.max_ts = static_cast<TimeNs>(GetU64(p + 8));
  zone.min_value_bits = GetU64(p + 16);
  zone.max_value_bits = GetU64(p + 24);
  zone.sum_value_bits = GetU64(p + 32);
  zone.first_id = GetU64(p + 40);
  zone.last_id = GetU64(p + 48);
  return zone;
}

bool EncodeBlock(const BlockColumns& rows, std::vector<std::uint8_t>& out) {
  out.clear();
  const std::size_t n = rows.size();
  const ColumnBuffer& samples = rows.samples;
  if (n == 0 || n > kMaxBlockRows || samples.size() != n ||
      samples.values.size() != n || samples.provenance.size() != n ||
      rows.ts_offsets.size() != n) {
    return false;
  }
  for (std::size_t i = 1; i < n; ++i) {
    if (rows.ids[i] <= rows.ids[i - 1]) return false;
  }
  out.reserve(kBlockHeaderSize + kZoneMapSize + n * 4);

  PutU32(out, kBlockMagic);
  PutU32(out, kBlockVersion);
  PutU32(out, static_cast<std::uint32_t>(n));
  PutU32(out, wal::Crc32c(out.data(), 12));

  const ZoneMap zone = ComputeZoneMap(rows);
  PutZone(out, zone);
  PutU32(out, wal::Crc32c(out.data() + kBlockHeaderSize, 56));
  PutU32(out, 0);  // pad the zone map region to 64 bytes

  std::vector<std::uint8_t> column;
  EncodeIds(rows.ids, column);
  PutSection(out, column);
  column.clear();
  EncodeTimestamps(samples.ts, column);
  PutSection(out, column);
  column.clear();
  EncodeSampleTsOffsets(rows.ts_offsets, column);
  PutSection(out, column);
  column.clear();
  EncodeValues(samples.values, column);
  PutSection(out, column);
  column.clear();
  EncodeProvenance(samples.provenance, column);
  PutSection(out, column);
  return true;
}

bool DecodeZoneMap(const std::uint8_t* data, std::size_t size,
                   std::uint32_t* row_count, ZoneMap* zone) {
  if (data == nullptr || size < kBlockHeaderSize + kZoneMapSize) return false;
  if (GetU32(data) != kBlockMagic) return false;
  if (GetU32(data + 4) != kBlockVersion) return false;
  const std::uint32_t rows = GetU32(data + 8);
  if (GetU32(data + 12) != wal::Crc32c(data, 12)) return false;
  if (rows == 0 || rows > kMaxBlockRows) return false;
  const std::uint8_t* zp = data + kBlockHeaderSize;
  if (GetU32(zp + 56) != wal::Crc32c(zp, 56)) return false;
  // The 4 pad bytes completing the 64-byte region must be zero: every
  // accepted image is the unique (canonical) encoding of its rows.
  if (GetU32(zp + 60) != 0) return false;
  *row_count = rows;
  *zone = GetZone(zp);
  return true;
}

bool DecodeBlock(const std::uint8_t* data, std::size_t size,
                 DecodedBlock* out) {
  std::uint32_t row_count = 0;
  if (!DecodeZoneMap(data, size, &row_count, &out->zone)) return false;

  // Every column decoder writes each cell of its column, so a reused
  // buffer needs no clearing.
  BlockColumns& rows = out->columns;
  rows.Resize(row_count);
  std::size_t pos = kBlockHeaderSize + kZoneMapSize;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_size = 0;
  if (!GetSection(data, size, &pos, &payload, &payload_size) ||
      !DecodeIds(payload, payload_size, rows.ids)) {
    return false;
  }
  if (!GetSection(data, size, &pos, &payload, &payload_size) ||
      !DecodeTimestamps(payload, payload_size, rows.samples.ts)) {
    return false;
  }
  if (!GetSection(data, size, &pos, &payload, &payload_size) ||
      !DecodeSampleTsOffsets(payload, payload_size, rows.ts_offsets)) {
    return false;
  }
  if (!GetSection(data, size, &pos, &payload, &payload_size) ||
      !DecodeValues(payload, payload_size, rows.samples.values)) {
    return false;
  }
  if (!GetSection(data, size, &pos, &payload, &payload_size) ||
      !DecodeProvenance(payload, payload_size, rows.samples.provenance)) {
    return false;
  }
  if (pos != size) return false;  // trailing bytes

  // The stored zone map must be exactly what the rows produce; a mismatch
  // means corruption the CRCs happened to miss, so reject the block rather
  // than return questionable rows.
  return ComputeZoneMap(rows) == out->zone;
}

}  // namespace apollo::coldtier
