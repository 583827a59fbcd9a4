// Row-major scalar nearest-center reference for the k-means tests: one
// center at a time, its squared distance summed in feature order, first
// minimum kept. KMeans searches a feature-major mirror of its centroids
// instead, and every result it derives from that search must equal this
// reference exactly (==, not near).
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "data/block.h"
#include "ml/kmeans.h"

namespace pe::ml::reference {

struct Nearest {
  std::size_t index = 0;
  double sq_dist = 0.0;
};

inline Nearest nearest(const std::vector<double>& centers,
                       std::size_t features, const double* row) {
  Nearest best{0, std::numeric_limits<double>::max()};
  for (std::size_t c = 0; c * features < centers.size(); ++c) {
    double sum = 0.0;
    for (std::size_t f = 0; f < features; ++f) {
      const double d = row[f] - centers[c * features + f];
      sum += d * d;
    }
    if (sum < best.sq_dist) best = {c, sum};
  }
  return best;
}

/// predict(), score() and inertia() on `block` equal the reference run
/// over the model's public row-major centers().
inline void expect_matches(const KMeans& model, const data::DataBlock& block) {
  const auto predicted = model.predict(block);
  const auto scores = model.score(block);
  const auto inertia = model.inertia(block);
  ASSERT_TRUE(predicted.ok());
  ASSERT_TRUE(scores.ok());
  ASSERT_TRUE(inertia.ok());
  double total = 0.0;
  for (std::size_t r = 0; r < block.rows; ++r) {
    const Nearest want = nearest(model.centers(), model.features(),
                                 block.values.data() + r * block.cols);
    ASSERT_EQ(predicted.value()[r], want.index) << "row " << r;
    ASSERT_EQ(scores.value()[r], std::sqrt(want.sq_dist)) << "row " << r;
    total += want.sq_dist;
  }
  EXPECT_EQ(inertia.value(), total);
}

}  // namespace pe::ml::reference
