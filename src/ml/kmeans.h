// K-means outlier detector (paper model 1; 25 clusters).
//
// fit() runs Lloyd's algorithm with k-means++ initialization; partial_fit()
// performs mini-batch k-means updates (Sculley 2010) so the model keeps
// learning from the stream, exactly the "model is updated based on the
// incoming data" behaviour in §III-2. The anomaly score of a point is its
// Euclidean distance to the nearest centroid.
//
// Nearest-centroid search reads a private feature-major mirror of the
// centroids (see nearest()), so the per-row distance loop runs across
// centers and vectorizes; every center's sum is still accumulated in
// feature order, so results are bit-identical to the row-major loop.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "ml/model.h"

namespace pe::ml {

struct KMeansConfig {
  std::size_t clusters = 25;  // paper: "k-means (25 clusters as previously)"
  std::size_t max_iterations = 20;
  double tolerance = 1e-4;  // stop when centroid movement falls below
  /// Cap on per-center sample weight during mini-batch updates. The
  /// classic 1/count learning rate decays to zero, freezing the model on
  /// non-stationary streams; a cap keeps the effective rate >= 1/cap so
  /// centroids can track concept drift (0 = uncapped, classic behaviour).
  std::uint64_t max_center_weight = 0;
  std::uint64_t seed = 13;
};

class KMeans final : public OutlierModel {
 public:
  explicit KMeans(KMeansConfig config = {});

  ModelKind kind() const override { return ModelKind::kKMeans; }
  bool fitted() const override { return !centers_.empty(); }

  Status fit(const data::DataBlock& block) override;
  Status partial_fit(const data::DataBlock& block) override;
  Result<std::vector<double>> score(
      const data::DataBlock& block) const override;

  Bytes save() const override;
  Status load(const Bytes& bytes) override;
  std::size_t parameter_count() const override { return centers_.size(); }

  /// Hard cluster assignment per row.
  Result<std::vector<std::uint32_t>> predict(
      const data::DataBlock& block) const;

  /// Sum of squared distances of the block to nearest centroids.
  Result<double> inertia(const data::DataBlock& block) const;

  const KMeansConfig& config() const { return config_; }
  std::size_t features() const { return features_; }
  /// Row-major clusters x features centroid matrix.
  const std::vector<double>& centers() const { return centers_; }
  /// Per-center observation counts (mini-batch state / FedAvg weights).
  const std::vector<std::uint64_t>& center_counts() const { return counts_; }
  /// Replaces the learned centroids (federated averaging); sizes must be
  /// consistent (centers.size() == counts.size() * features).
  Status set_centers(std::vector<double> centers,
                     std::vector<std::uint64_t> counts,
                     std::size_t features);

 private:
  void init_centers(const data::DataBlock& block);
  /// Index of nearest center and its squared distance (first index wins
  /// ties), computed from the feature-major mirror.
  std::pair<std::size_t, double> nearest(const double* row) const;
  /// Rebuilds the mirror from centers_; called wherever centers_ is
  /// replaced or moved as a whole.
  void sync_mirror();
  /// Copies center `c` of centers_ into the mirror (one strided column).
  void sync_mirror_center(std::size_t c);

  KMeansConfig config_;
  Rng rng_;
  std::size_t features_ = 0;
  std::vector<double> centers_;        // clusters x features
  std::vector<std::uint64_t> counts_;  // per-center sample counts (minibatch)
  // Feature-major copy of centers_: entry (f, c) at f * mirror_stride_ + c,
  // the stride being the center count rounded up to a multiple of 4 (the
  // padding lanes hold zeros and are never reported).
  std::vector<double> mirror_;
  std::size_t mirror_stride_ = 0;
};

}  // namespace pe::ml
