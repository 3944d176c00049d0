// ExactSum (src/common/exact_sum.h): the exact accumulator behind SUM/AVG
// on every path and behind the cold tier's block summaries. Expected
// values are worked out by hand or come from IEEE addition, which rounds
// the exact sum of two doubles once, to nearest-even, just as ExactSum
// must. (The suite runs in the cold-tier binary, so the ubsan leg's
// float-cast-overflow check covers the accumulator's shifts and casts.)
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/exact_sum.h"
#include "common/rng.h"

namespace apollo {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMax = std::numeric_limits<double>::max();
constexpr double kTiny = std::numeric_limits<double>::denorm_min();

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

double SumOf(const std::vector<double>& values) {
  ExactSum sum;
  for (double v : values) sum.Add(v);
  return sum.Value();
}

TEST(ExactSum, EmptyAndCancelledSumsArePositiveZero) {
  EXPECT_TRUE(SameBits(ExactSum().Value(), 0.0));
  EXPECT_TRUE(SameBits(SumOf({-0.0}), 0.0));
  EXPECT_TRUE(SameBits(SumOf({-0.0, -0.0}), 0.0));
  EXPECT_TRUE(SameBits(SumOf({1.0, -1.0}), 0.0));
  EXPECT_TRUE(SameBits(SumOf({-kTiny, kTiny}), 0.0));
  EXPECT_TRUE(SameBits(SumOf({-1e300, 1e300}), 0.0));
}

TEST(ExactSum, OverflowsOnlyWhenTheRoundedTotalDoes) {
  EXPECT_EQ(SumOf({1e308, 1e308, -1e308}), 1e308);
  EXPECT_EQ(SumOf({kMax, kMax, -kMax}), kMax);
  EXPECT_EQ(SumOf({-kMax, -kMax, kMax}), -kMax);
  EXPECT_EQ(SumOf({kMax, kMax}), kInf);
  EXPECT_EQ(SumOf({-kMax, -kMax}), -kInf);
  // Half an ulp above the largest double is a tie, and the largest
  // double's significand is odd, so it rounds up: to infinity.
  EXPECT_EQ(SumOf({kMax, std::ldexp(1.0, 970)}), kInf);
  EXPECT_EQ(SumOf({kMax, std::ldexp(1.0, 969)}), kMax);
  EXPECT_EQ(SumOf({kMax, std::ldexp(1.0, 970), -std::ldexp(1.0, 969)}), kMax);
}

TEST(ExactSum, LargeValuesCancelWithoutLosingSmallOnes) {
  EXPECT_EQ(SumOf({1e17, 0.1, -1e17}), 0.1);
  EXPECT_EQ(SumOf({0.1, 1e17, 0.2, -1e17, 0.3}), SumOf({0.1, 0.2, 0.3}));
  EXPECT_EQ(SumOf({1e300, 1.0, -1e300, 1e-300, -1e-300}), 1.0);
  // 0.1 + 0.2 + 0.3 is 0.6000000000000000055511151231257827 exactly, which
  // rounds to 0.6; a double sum in that order gives 0.6000000000000001.
  EXPECT_EQ(SumOf({0.1, 0.2, 0.3}), 0.6);
  EXPECT_NE(0.1 + 0.2 + 0.3, 0.6);
}

TEST(ExactSum, TiesRoundHalfToEven) {
  const double two53 = std::ldexp(1.0, 53);
  // 2^53 + 1 lies halfway between 2^53 and 2^53 + 2: the even one wins.
  EXPECT_EQ(SumOf({two53, 1.0}), two53);
  EXPECT_EQ(SumOf({two53, 3.0}), two53 + 4.0);
  EXPECT_EQ(SumOf({-two53, -1.0}), -two53);
  EXPECT_EQ(SumOf({-two53, -3.0}), -two53 - 4.0);
  // Anything beyond the half, however far below, breaks the tie upward.
  EXPECT_EQ(SumOf({two53, 1.0, std::ldexp(1.0, -1000)}), two53 + 2.0);
  EXPECT_EQ(SumOf({two53, 1.0, kTiny}), two53 + 2.0);
  EXPECT_EQ(SumOf({two53, 1.0, -kTiny}), two53);
  EXPECT_EQ(SumOf({1.0, std::ldexp(1.0, -53)}), 1.0);
  EXPECT_EQ(SumOf({1.0, std::ldexp(1.0, -53), kTiny}),
            std::nextafter(1.0, 2.0));
}

TEST(ExactSum, SubnormalsAddExactly) {
  EXPECT_EQ(SumOf({kTiny, kTiny}), 2 * kTiny);
  EXPECT_EQ(SumOf({kTiny, kTiny, kTiny, -kTiny}), 2 * kTiny);
  const double min_normal = std::numeric_limits<double>::min();
  const double below = std::nextafter(min_normal, 0.0);  // largest subnormal
  EXPECT_EQ(SumOf({below, kTiny}), min_normal);
  EXPECT_EQ(SumOf({min_normal, -kTiny}), below);
  EXPECT_EQ(SumOf({1.0, kTiny, -1.0}), kTiny);
  EXPECT_TRUE(SameBits(SumOf({-kTiny}), -kTiny));
}

TEST(ExactSum, NonFiniteValuesFollowTheSumRule) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(SumOf({1.0, kNan, 2.0})));
  EXPECT_TRUE(std::isnan(SumOf({kInf, -kInf})));
  EXPECT_TRUE(std::isnan(SumOf({kInf, kNan})));
  EXPECT_EQ(SumOf({kInf, 1.0, kInf}), kInf);
  EXPECT_EQ(SumOf({-kInf, kMax, kMax}), -kInf);
  EXPECT_EQ(SumOf({1.0, 2.0, kInf, 3.0}), kInf);
}

// For any two finite doubles IEEE addition is the exact sum rounded once,
// to nearest-even (overflow included), which is ExactSum's contract.
TEST(ExactSum, PairsMatchIeeeAddition) {
  Rng rng(0xE5A0u);
  const auto any_double = [&rng] {
    const double sign = rng.Bernoulli(0.5) ? -1.0 : 1.0;
    const int exp = static_cast<int>(rng.NextBounded(2098)) - 1074;
    return sign * std::ldexp(rng.Uniform(1.0, 2.0), exp);
  };
  for (int i = 0; i < 200000; ++i) {
    const double a = any_double();
    // Nearby exponents too, where the two significands overlap.
    const double b = rng.Bernoulli(0.5)
                         ? any_double()
                         : -a * rng.Uniform(0.5, 2.0) + std::ldexp(a, -60);
    ExactSum sum;
    sum.Add(a);
    sum.Add(b);
    ASSERT_TRUE(SameBits(sum.Value(), a + b))
        << a << " + " << b << ": got " << sum.Value() << ", want " << a + b;
  }
}

// Splitting the values among accumulators and merging them, in any order,
// gives the bits of adding them all in sequence.
TEST(ExactSum, MergingEqualsAddingInSequence) {
  Rng rng(0xE5A1u);
  const auto hostile = [&rng] {
    const double pick = rng.Uniform(0.0, 1.0);
    const double sign = rng.Bernoulli(0.5) ? -1.0 : 1.0;
    if (pick < 0.1) {
      return sign * kTiny * static_cast<double>(rng.NextBounded(1000));
    }
    if (pick < 0.2) return sign * 1e17;
    if (pick < 0.25) return sign * 1e300;
    if (pick < 0.3) return sign * kMax;
    if (pick < 0.35) return sign * 0.0;
    return sign * rng.Uniform(0.0, 1.0) *
           std::ldexp(1.0, static_cast<int>(rng.NextBounded(80)));
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> values(1 + rng.NextBounded(300));
    for (double& v : values) v = hostile();
    const double sequential = SumOf(values);

    std::vector<ExactSum> parts(1 + rng.NextBounded(6));
    for (double v : values) parts[rng.NextBounded(parts.size())].Add(v);
    ExactSum merged;
    for (std::size_t k = parts.size(); k-- > 0;) merged.Merge(parts[k].Pack());
    ASSERT_TRUE(SameBits(merged.Value(), sequential)) << "trial " << trial;

    // A packed sum reads back as itself, and merging an empty one is a
    // no-op.
    ExactSum round_trip;
    round_trip.Merge(merged.Pack());
    round_trip.Merge(ExactSum().Pack());
    ASSERT_TRUE(SameBits(round_trip.Value(), sequential)) << "trial " << trial;

    std::vector<double> reversed(values.rbegin(), values.rend());
    ASSERT_TRUE(SameBits(SumOf(reversed), sequential)) << "trial " << trial;
  }
}

TEST(ExactSum, PackKeepsOnlyTheNonZeroDigits) {
  ExactSum small;
  for (int i = 0; i < 1000; ++i) small.Add(static_cast<double>(i));
  const ExactSum::Packed packed = small.Pack();
  EXPECT_LE(packed.digits.size(), 2u);
  EXPECT_TRUE(ExactSum().Pack().digits.empty());
  ExactSum restored;
  restored.Merge(packed);
  EXPECT_EQ(restored.Value(), 499500.0);
}

TEST(ValueOrder, NegativeZeroOrdersBelowPositiveZero) {
  EXPECT_TRUE(OrdersBelow(-0.0, 0.0));
  EXPECT_FALSE(OrdersBelow(0.0, -0.0));
  EXPECT_FALSE(OrdersBelow(0.0, 0.0));
  EXPECT_FALSE(OrdersBelow(-0.0, -0.0));
  EXPECT_TRUE(OrdersBelow(-1.0, -0.0));
  EXPECT_TRUE(OrdersBelow(0.0, kTiny));
  EXPECT_FALSE(OrdersBelow(1.0, 1.0));
}

}  // namespace
}  // namespace apollo
