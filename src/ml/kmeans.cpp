#include "ml/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pe::ml {
namespace {

double sq_dist(const double* a, const double* b, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

/// Centers per pass of the nearest-center kernel; their running sums sit
/// in a stack array of this size.
constexpr std::size_t kChunk = 32;

using NearestFn = std::pair<std::size_t, double> (*)(
    const double* row, const double* mirror, std::size_t features,
    std::size_t k, std::size_t stride);

/// Nearest center over the feature-major mirror (`stride` = k rounded up
/// to a multiple of 4). Per chunk of centers the outer loop walks the
/// features and the inner loop the centers, four at a time, so the
/// compiler vectorizes across centers. Each center's sum still adds its
/// terms one by one in feature order, as the row-major loop does, and the
/// scan keeps the first minimum, so the result is bit-identical to it.
__attribute__((always_inline)) inline std::pair<std::size_t, double>
nearest_chunked(const double* row, const double* mirror,
                std::size_t features, std::size_t k, std::size_t stride) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::max();
  double sums[kChunk];
  for (std::size_t c0 = 0; c0 < k; c0 += kChunk) {
    const std::size_t width = std::min(kChunk, stride - c0);
    // A plain loop: with std::fill_n here GCC 12 at -O3 pairs up features
    // with lane shuffles and runs slower than the row-major loop.
    for (std::size_t j = 0; j < width; ++j) sums[j] = 0.0;
    for (std::size_t f = 0; f < features; ++f) {
      const double x = row[f];
      const double* col = mirror + f * stride + c0;
      for (std::size_t j = 0; j < width; j += 4) {
        for (std::size_t l = 0; l < 4; ++l) {
          const double d = x - col[j + l];
          sums[j + l] += d * d;
        }
      }
    }
    const std::size_t live = std::min(kChunk, k - c0);
    for (std::size_t j = 0; j < live; ++j) {
      if (sums[j] < best_d) {
        best_d = sums[j];
        best = c0 + j;
      }
    }
  }
  return {best, best_d};
}

std::pair<std::size_t, double> nearest_portable(const double* row,
                                                const double* mirror,
                                                std::size_t features,
                                                std::size_t k,
                                                std::size_t stride) {
  return nearest_chunked(row, mirror, features, k, stride);
}

#if defined(__x86_64__)
/// The same loop compiled for AVX2 (four doubles per vector). The target
/// deliberately omits FMA: a fused multiply-add rounds once where the
/// reference rounds twice, which would change distances.
__attribute__((target("avx2"))) std::pair<std::size_t, double> nearest_avx2(
    const double* row, const double* mirror, std::size_t features,
    std::size_t k, std::size_t stride) {
  return nearest_chunked(row, mirror, features, k, stride);
}
#endif

/// The kernel nearest() runs, picked once per process from the CPU's
/// feature bits (as storage/crc32c.h does).
NearestFn nearest_impl() {
  static const NearestFn impl = []() -> NearestFn {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) return &nearest_avx2;
#endif
    return &nearest_portable;
  }();
  return impl;
}

}  // namespace

KMeans::KMeans(KMeansConfig config) : config_(config), rng_(config.seed) {
  if (config_.clusters == 0) config_.clusters = 1;
}

std::pair<std::size_t, double> KMeans::nearest(const double* row) const {
  return nearest_impl()(row, mirror_.data(), features_,
                        centers_.size() / features_, mirror_stride_);
}

void KMeans::sync_mirror() {
  const std::size_t k = features_ == 0 ? 0 : centers_.size() / features_;
  mirror_stride_ = (k + 3) / 4 * 4;
  mirror_.assign(features_ * mirror_stride_, 0.0);
  for (std::size_t c = 0; c < k; ++c) sync_mirror_center(c);
}

void KMeans::sync_mirror_center(std::size_t c) {
  const double* center = centers_.data() + c * features_;
  for (std::size_t f = 0; f < features_; ++f) {
    mirror_[f * mirror_stride_ + c] = center[f];
  }
}

void KMeans::init_centers(const data::DataBlock& block) {
  features_ = block.cols;
  const std::size_t k = std::min(config_.clusters, block.rows);
  centers_.assign(config_.clusters * features_, 0.0);
  counts_.assign(config_.clusters, 0);

  // k-means++ seeding: first center uniform, then proportional to D^2.
  std::vector<double> min_d2(block.rows,
                             std::numeric_limits<double>::max());
  const auto first = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(block.rows) - 1));
  std::copy_n(block.values.data() + first * features_, features_,
              centers_.begin());

  for (std::size_t c = 1; c < k; ++c) {
    const double* last_center = centers_.data() + (c - 1) * features_;
    double total = 0.0;
    for (std::size_t r = 0; r < block.rows; ++r) {
      const double d =
          sq_dist(block.values.data() + r * features_, last_center, features_);
      min_d2[r] = std::min(min_d2[r], d);
      total += min_d2[r];
    }
    double target = rng_.uniform(0.0, total);
    std::size_t chosen = block.rows - 1;
    for (std::size_t r = 0; r < block.rows; ++r) {
      target -= min_d2[r];
      if (target <= 0.0) {
        chosen = r;
        break;
      }
    }
    std::copy_n(block.values.data() + chosen * features_, features_,
                centers_.begin() + static_cast<std::ptrdiff_t>(c * features_));
  }
  // If the block had fewer rows than clusters, duplicate-seed the rest from
  // random rows so every center is valid.
  for (std::size_t c = k; c < config_.clusters; ++c) {
    const auto r = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(block.rows) - 1));
    std::copy_n(block.values.data() + r * features_, features_,
                centers_.begin() + static_cast<std::ptrdiff_t>(c * features_));
  }
}

Status KMeans::fit(const data::DataBlock& block) {
  if (!block.valid() || block.rows == 0) {
    return Status::InvalidArgument("invalid or empty block");
  }
  init_centers(block);
  sync_mirror();
  const std::size_t k = config_.clusters;

  std::vector<std::size_t> assign(block.rows, 0);
  std::vector<double> new_centers(k * features_);
  std::vector<std::uint64_t> new_counts(k);

  for (std::size_t iter = 0; iter < config_.max_iterations; ++iter) {
    std::fill(new_centers.begin(), new_centers.end(), 0.0);
    std::fill(new_counts.begin(), new_counts.end(), 0);

    for (std::size_t r = 0; r < block.rows; ++r) {
      const double* row = block.values.data() + r * features_;
      assign[r] = nearest(row).first;
      double* acc = new_centers.data() + assign[r] * features_;
      for (std::size_t f = 0; f < features_; ++f) acc[f] += row[f];
      new_counts[assign[r]] += 1;
    }

    double movement = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      if (new_counts[c] == 0) continue;  // keep empty centers in place
      double* target = new_centers.data() + c * features_;
      const double inv = 1.0 / static_cast<double>(new_counts[c]);
      double* current = centers_.data() + c * features_;
      for (std::size_t f = 0; f < features_; ++f) {
        target[f] *= inv;
        const double d = target[f] - current[f];
        movement += d * d;
        current[f] = target[f];
      }
      sync_mirror_center(c);
    }
    if (std::sqrt(movement) < config_.tolerance) break;
  }
  counts_.assign(k, 0);
  for (std::size_t r = 0; r < block.rows; ++r) counts_[assign[r]] += 1;
  return Status::Ok();
}

Status KMeans::partial_fit(const data::DataBlock& block) {
  if (!block.valid() || block.rows == 0) {
    return Status::InvalidArgument("invalid or empty block");
  }
  if (!fitted()) {
    // First block bootstraps the model with a full fit.
    return fit(block);
  }
  if (block.cols != features_) {
    return Status::InvalidArgument("feature count mismatch");
  }
  // Mini-batch update (Sculley): per-sample convex step toward the sample
  // with learning rate 1/count(center). An optional weight cap keeps the
  // rate bounded away from zero for drift tracking.
  for (std::size_t r = 0; r < block.rows; ++r) {
    const double* row = block.values.data() + r * features_;
    const std::size_t c = nearest(row).first;
    counts_[c] += 1;
    if (config_.max_center_weight > 0 &&
        counts_[c] > config_.max_center_weight) {
      counts_[c] = config_.max_center_weight;
    }
    const double eta = 1.0 / static_cast<double>(counts_[c]);
    double* center = centers_.data() + c * features_;
    for (std::size_t f = 0; f < features_; ++f) {
      center[f] += eta * (row[f] - center[f]);
    }
    sync_mirror_center(c);
  }
  return Status::Ok();
}

Result<std::vector<double>> KMeans::score(
    const data::DataBlock& block) const {
  if (!fitted()) return Status::FailedPrecondition("model not fitted");
  if (!block.valid()) return Status::InvalidArgument("invalid block");
  if (block.cols != features_) {
    return Status::InvalidArgument("feature count mismatch");
  }
  std::vector<double> scores(block.rows);
  for (std::size_t r = 0; r < block.rows; ++r) {
    scores[r] =
        std::sqrt(nearest(block.values.data() + r * features_).second);
  }
  return scores;
}

Result<std::vector<std::uint32_t>> KMeans::predict(
    const data::DataBlock& block) const {
  if (!fitted()) return Status::FailedPrecondition("model not fitted");
  if (block.cols != features_) {
    return Status::InvalidArgument("feature count mismatch");
  }
  std::vector<std::uint32_t> out(block.rows);
  for (std::size_t r = 0; r < block.rows; ++r) {
    out[r] = static_cast<std::uint32_t>(
        nearest(block.values.data() + r * features_).first);
  }
  return out;
}

Result<double> KMeans::inertia(const data::DataBlock& block) const {
  if (!fitted()) return Status::FailedPrecondition("model not fitted");
  if (block.cols != features_) {
    return Status::InvalidArgument("feature count mismatch");
  }
  double total = 0.0;
  for (std::size_t r = 0; r < block.rows; ++r) {
    total += nearest(block.values.data() + r * features_).second;
  }
  return total;
}

Status KMeans::set_centers(std::vector<double> centers,
                           std::vector<std::uint64_t> counts,
                           std::size_t features) {
  if (features == 0 || counts.empty() ||
      centers.size() != counts.size() * features) {
    return Status::InvalidArgument("inconsistent centroid shapes");
  }
  config_.clusters = counts.size();
  features_ = features;
  centers_ = std::move(centers);
  counts_ = std::move(counts);
  sync_mirror();
  return Status::Ok();
}

Bytes KMeans::save() const {
  Bytes out;
  ByteWriter w(out);
  w.put_u64(config_.clusters);
  w.put_u64(features_);
  w.put_f64_array(centers_.data(), centers_.size());
  for (std::uint64_t c : counts_) w.put_u64(c);
  return out;
}

Status KMeans::load(const Bytes& bytes) {
  ByteReader r(bytes);
  std::uint64_t clusters = 0, features = 0;
  if (auto s = r.get_u64(clusters); !s.ok()) return s;
  if (auto s = r.get_u64(features); !s.ok()) return s;
  if (clusters == 0 || clusters > (1u << 20) || features > (1u << 20)) {
    return Status::InvalidArgument("implausible kmeans dimensions");
  }
  std::vector<double> centers(clusters * features);
  if (auto s = r.get_f64_array(centers.data(), centers.size()); !s.ok()) {
    return s;
  }
  std::vector<std::uint64_t> counts(clusters);
  for (auto& c : counts) {
    if (auto s = r.get_u64(c); !s.ok()) return s;
  }
  config_.clusters = clusters;
  features_ = features;
  centers_ = std::move(centers);
  counts_ = std::move(counts);
  sync_mirror();
  return Status::Ok();
}

}  // namespace pe::ml
