// Deterministic random number generation helpers.
//
// All stochastic components (data generator, k-means init, isolation forest
// sampling, autoencoder init, network jitter) take an explicit seed so runs
// are reproducible.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace pe {

/// Thin wrapper over std::mt19937_64 with convenience draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  std::uint64_t next_u64() { return engine_(); }

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Gaussian with given mean and standard deviation. One distribution
  /// object lives as long as the Rng so the second normal of each polar
  /// (Marsaglia) draw is kept for the next call instead of thrown away;
  /// per-call parameters leave that cached standard normal valid.
  double gaussian(double mean = 0.0, double stddev = 1.0) {
    return normal_(engine_, decltype(normal_)::param_type(mean, stddev));
  }

  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Sample k distinct indices from [0, n) without replacement
  /// (partial Fisher-Yates).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k) {
    if (k > n) k = n;
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(static_cast<std::int64_t>(i),
                      static_cast<std::int64_t>(n - 1)));
      std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    return idx;
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::normal_distribution<double> normal_;
};

}  // namespace pe
