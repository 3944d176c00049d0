#include "common/exact_sum.h"

#include <algorithm>

namespace apollo {

void ExactSum::Propagate() {
  adds_ = 0;
  if (lo_ > hi_) return;
  for (int i = lo_; i < hi_; ++i) {
    const std::int64_t carry = digits_[i] >> 32;  // floor(digit / 2^32)
    digits_[i] &= 0xFFFFFFFF;
    digits_[i + 1] += carry;
  }
  // The top digit keeps the sign, and its carry moves up once it no longer
  // fits in [-2^32, 2^32).
  const std::int64_t carry = digits_[hi_] >> 32;
  if (carry != 0 && carry != -1 && hi_ < kDigits - 1) {
    digits_[hi_] &= 0xFFFFFFFF;
    digits_[++hi_] += carry;
  }
  while (hi_ > lo_ && digits_[hi_] == 0) --hi_;
  while (lo_ < hi_ && digits_[lo_] == 0) ++lo_;
  if (lo_ == hi_ && digits_[lo_] == 0) {
    lo_ = kDigits;
    hi_ = -1;
  }
}

void ExactSum::Merge(const Packed& packed) {
  non_finite_ |= packed.non_finite;
  if (packed.digits.empty()) return;
  if (adds_ == kCarryEvery) Propagate();
  ++adds_;
  const int top = packed.lo + static_cast<int>(packed.digits.size()) - 1;
  for (int i = packed.lo; i <= top; ++i) {
    digits_[i] += packed.digits[static_cast<std::size_t>(i - packed.lo)];
  }
  lo_ = std::min(lo_, packed.lo);
  hi_ = std::max(hi_, top);
}

ExactSum::Packed ExactSum::Pack() const {
  ExactSum copy = *this;
  copy.Propagate();
  Packed packed;
  packed.non_finite = non_finite_;
  if (copy.lo_ <= copy.hi_) {
    packed.lo = copy.lo_;
    packed.digits.assign(copy.digits_ + copy.lo_, copy.digits_ + copy.hi_ + 1);
  }
  return packed;
}

double ExactSum::Value() const {
  double finite = 0.0;
  if (lo_ <= hi_) {
    // A carry-propagated copy: every digit of [lo_, hi_] in [0, 2^32), and
    // `carry` the rest, in units of digit hi_ + 1.
    std::int64_t d[kDigits + 1] = {};
    std::int64_t carry = 0;
    for (int i = lo_; i <= hi_; ++i) {
      const std::int64_t x = digits_[i] + carry;
      carry = x >> 32;
      d[i] = x & 0xFFFFFFFF;
    }
    const bool negative = carry < 0;
    if (negative) {
      // -sum = sum(-d[i] 2^(32 i)) - carry 2^(32 (hi_ + 1)): propagate the
      // negated digits, whose carry out is 0 or -1.
      std::int64_t negated_carry = 0;
      for (int i = lo_; i <= hi_; ++i) {
        const std::int64_t x = negated_carry - d[i];
        negated_carry = x >> 32;
        d[i] = x & 0xFFFFFFFF;
      }
      carry = negated_carry - carry;
    }
    // Every digit was below 2^62 in magnitude, so the carry fits a digit.
    d[hi_ + 1] = carry;
    int h = hi_ + 1;
    while (h >= lo_ && d[h] == 0) --h;
    if (h >= lo_) {
      const int b = 63 - std::countl_zero(static_cast<std::uint64_t>(d[h]));
      const int top_bit = 32 * h + b;  // the leading 1, counted from 2^-1074
      const auto digit = [&d](int i) {
        return i >= 0 ? static_cast<std::uint64_t>(d[i]) : std::uint64_t{0};
      };
      double magnitude = 0.0;
      if (top_bit < 53) {
        // Below 2^-1021: a subnormal or the lowest binade, exact.
        magnitude = std::ldexp(
            static_cast<double>((digit(1) << 32) | digit(0)), -1074);
      } else {
        // The 64 bits from the leading 1 down, and a sticky bit for
        // anything below them; then round to 53 bits, ties to even.
        const std::uint64_t top = (digit(h) << 32) | digit(h - 1);
        const std::uint64_t next = digit(h - 2);
        const std::uint64_t m = (top << (31 - b)) | (next >> (b + 1));
        bool sticky = (next & ((std::uint64_t{1} << (b + 1)) - 1)) != 0;
        for (int j = lo_; j <= h - 3 && !sticky; ++j) sticky = d[j] != 0;
        std::uint64_t kept = m >> 11;
        const std::uint64_t rest = m & 0x7FF;
        if (rest > 0x400 || (rest == 0x400 && (sticky || (kept & 1) != 0))) {
          ++kept;
        }
        // Overflows to infinity exactly when the rounded value does.
        magnitude = std::ldexp(static_cast<double>(kept), top_bit - 52 - 1074);
      }
      finite = negative ? -magnitude : magnitude;
    }
  }
  return SumRule(finite, (non_finite_ & kNan) != 0,
                 (non_finite_ & kPosInf) != 0, (non_finite_ & kNegInf) != 0);
}

}  // namespace apollo
