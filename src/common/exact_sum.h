// The numeric rules every aggregate path shares: the ring's rolling index,
// the scan over ring + WAL + cold rows, and the cold tier's block
// summaries. With one rule on every path, no answer depends on row order
// or on how the rows split across tiers.
//
// ExactSum is the exact sum of any number of doubles, rounded once, to
// nearest-even. Every finite double is an integer multiple of 2^-1074 (the
// smallest subnormal) below 2^1024, so one fixed-point number whose unit is
// 2^-1074 holds any sum of them exactly. This is Neal's small
// superaccumulator (R. M. Neal, "Fast exact summation using small and large
// superaccumulators", arXiv:1505.05571): kDigits signed 64-bit digits, digit
// i weighing 2^(32 i - 1074). Adding a double adds its 53-bit significand,
// shifted into place, to three digits. A digit gains less than 2^32 per
// add, so carries are propagated only every kCarryEvery adds, and when the
// sum is read or packed. Merging a Packed sum is exact too.
//
// The rules:
//   - SUM over rows that hold a NaN, or both infinities, is NaN; over rows
//     that hold infinities of one sign, that infinity (SumRule). Otherwise
//     it is the exact sum of the finite values, rounded once; a zero sum is
//     +0.0, and a finite sum overflows only when its rounded value does.
//   - MIN/MAX skip NaN and order -0.0 below +0.0 (OrdersBelow), as the
//     cold tier's zone maps do, so MIN is -0.0 and MAX +0.0 over a set that
//     holds both zeros, whatever their order.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace apollo {

// SUM's rule for non-finite values: NaN when the rows hold a NaN or both
// infinities, the infinity when they hold infinities of one sign, and
// otherwise `finite_sum`, the sum of the finite rows.
inline double SumRule(double finite_sum, bool nan, bool pos_inf,
                      bool neg_inf) {
  if (nan || (pos_inf && neg_inf)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (pos_inf) return std::numeric_limits<double>::infinity();
  if (neg_inf) return -std::numeric_limits<double>::infinity();
  return finite_sum;
}

// MIN/MAX's order on non-NaN values: the numeric order, with -0.0 below
// +0.0.
inline bool OrdersBelow(double a, double b) {
  return a < b || (a == b && std::signbit(a) && !std::signbit(b));
}

class ExactSum {
 public:
  // A sum at rest, as a block summary keeps it: the carry-propagated digits
  // from the lowest to the highest non-zero one, and which non-finite
  // values were added.
  struct Packed {
    std::vector<std::int64_t> digits;
    int lo = 0;  // index of digits[0]
    std::uint8_t non_finite = 0;
  };

  void Add(double v) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    const int exp = static_cast<int>((bits >> 52) & 0x7FF);
    std::uint64_t mant = bits & ((std::uint64_t{1} << 52) - 1);
    if (exp == 0x7FF) [[unlikely]] {
      non_finite_ |= mant != 0 ? kNan : (bits >> 63) != 0 ? kNegInf : kPosInf;
      return;
    }
    if (exp != 0) {
      mant |= std::uint64_t{1} << 52;
    } else if (mant == 0) {
      return;  // ±0.0 adds nothing
    }
    if (adds_ == kCarryEvery) [[unlikely]] Propagate();
    ++adds_;
    // Bit 0 of the significand weighs 2^(exp - 1075), or 2^-1074 for a
    // subnormal: position exp - 1 (or 0) counted from 2^-1074.
    const int pos = exp != 0 ? exp - 1 : 0;
    const int i = pos >> 5;
    const int shift = pos & 31;
    // The shifted significand spans 84 bits: 64 in `low`, 20 in `high`.
    const std::uint64_t low = mant << shift;
    const std::uint64_t high = (mant >> 1) >> (63 - shift);
    // Conditional negation without a branch: (x ^ s) - s is x or -x.
    const std::int64_t s = -static_cast<std::int64_t>(bits >> 63);
    digits_[i] += (static_cast<std::int64_t>(low & 0xFFFFFFFF) ^ s) - s;
    digits_[i + 1] += (static_cast<std::int64_t>(low >> 32) ^ s) - s;
    digits_[i + 2] += (static_cast<std::int64_t>(high) ^ s) - s;
    lo_ = i < lo_ ? i : lo_;
    hi_ = i + 2 > hi_ ? i + 2 : hi_;
  }

  // Adds a packed sum; exact.
  void Merge(const Packed& packed);

  // The sum under SumRule: the exact sum of the finite values, rounded
  // once to nearest-even.
  double Value() const;

  Packed Pack() const;

 private:
  // 2046 significand positions (up to the top of the largest double's
  // significand, digit 65), and a top digit for carries.
  static constexpr int kDigits = 67;
  // Each add moves a digit by less than 2^32, so 2^30 adds keep every
  // digit below 2^62 in magnitude.
  static constexpr std::uint32_t kCarryEvery = 1u << 30;
  static constexpr std::uint8_t kNan = 1;
  static constexpr std::uint8_t kPosInf = 2;
  static constexpr std::uint8_t kNegInf = 4;

  // Brings every digit of [lo_, hi_) into [0, 2^32) and moves the carries
  // up; the top digit of the span keeps the sign.
  void Propagate();

  std::int64_t digits_[kDigits] = {};
  int lo_ = kDigits;  // digits outside [lo_, hi_] are zero
  int hi_ = -1;
  std::uint32_t adds_ = 0;  // adds since the last Propagate
  std::uint8_t non_finite_ = 0;
};

}  // namespace apollo
