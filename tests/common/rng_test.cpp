#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace pe {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool differs = false;
  for (int i = 0; i < 10 && !differs; ++i) {
    differs = a.next_u64() != b.next_u64();
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values hit
}

TEST(RngTest, GaussianMomentsApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.gaussian(5.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, SameSeedSameGaussianStream) {
  Rng a(77), b(77);
  for (int i = 0; i < 1000; ++i) {
    const double mean = static_cast<double>(i % 5);
    const double stddev = 0.5 + static_cast<double>(i % 3);
    EXPECT_EQ(a.gaussian(mean, stddev), b.gaussian(mean, stddev)) << i;
  }
}

TEST(RngTest, GaussianSpareTakesTheNextCallsParameters) {
  // The polar method makes two standard normals per draw; the second is
  // handed out by the next call, scaled by that call's mean and stddev.
  Rng standard(9), scaled(9);
  const double z1 = standard.gaussian();
  const double z2 = standard.gaussian();
  EXPECT_DOUBLE_EQ(scaled.gaussian(10.0, 2.0), z1 * 2.0 + 10.0);
  EXPECT_DOUBLE_EQ(scaled.gaussian(-3.0, 0.5), z2 * 0.5 - 3.0);
}

TEST(RngTest, GaussianKeepsTheSpareDraw) {
  // Each polar draw takes 4/pi (about 1.27) pairs of engine outputs and
  // yields two normals, so N draws cost about 1.27 N engine outputs when
  // the spare is kept and about 2.55 N when it is thrown away.
  Rng rng(5);
  std::mt19937_64 probe = rng.engine();
  constexpr std::size_t kDraws = 10000;
  for (std::size_t i = 0; i < kDraws; ++i) rng.gaussian(1.0, 3.0);
  std::size_t steps = 0;
  while (probe != rng.engine() && steps < 4 * kDraws) {
    probe();
    ++steps;
  }
  ASSERT_TRUE(probe == rng.engine());
  EXPECT_LT(steps, kDraws * 3 / 2);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(5);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (auto s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleClampsWhenKExceedsN) {
  Rng rng(5);
  const auto sample = rng.sample_without_replacement(5, 50);
  EXPECT_EQ(sample.size(), 5u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

}  // namespace
}  // namespace pe
