#include "ml/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "data/generator.h"
#include "kmeans_reference.h"
#include "ml/outlier.h"

namespace pe::ml {
namespace {

data::DataBlock make_block(std::size_t rows, double outlier_fraction = 0.05,
                           std::uint64_t seed = 7) {
  data::GeneratorConfig config;
  config.clusters = 5;
  config.outlier_fraction = outlier_fraction;
  config.seed = seed;
  data::Generator gen(config);
  return gen.generate(rows);
}

TEST(KMeansTest, UnfittedModelRefusesToScore) {
  KMeans model;
  EXPECT_FALSE(model.fitted());
  EXPECT_EQ(model.score(make_block(10)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(KMeansTest, FitOnEmptyBlockRejected) {
  KMeans model;
  data::DataBlock empty;
  EXPECT_EQ(model.fit(empty).code(), StatusCode::kInvalidArgument);
}

TEST(KMeansTest, FitProducesRequestedClusters) {
  KMeansConfig config;
  config.clusters = 5;
  KMeans model(config);
  ASSERT_TRUE(model.fit(make_block(500, 0.0)).ok());
  EXPECT_TRUE(model.fitted());
  EXPECT_EQ(model.features(), 32u);
  EXPECT_EQ(model.centers().size(), 5u * 32u);
  EXPECT_EQ(model.parameter_count(), 5u * 32u);
}

TEST(KMeansTest, ScoresOutliersHigherThanInliers) {
  KMeansConfig config;
  config.clusters = 5;
  KMeans model(config);
  auto block = make_block(2000, 0.05);
  ASSERT_TRUE(model.fit(block).ok());
  auto scores = model.score(block);
  ASSERT_TRUE(scores.ok());
  const double auc = roc_auc(scores.value(), block.labels);
  EXPECT_GT(auc, 0.95);  // far-away uniform outliers are easy
}

TEST(KMeansTest, PredictAssignsNearestCluster) {
  KMeansConfig config;
  config.clusters = 5;
  KMeans model(config);
  auto block = make_block(500, 0.0);
  ASSERT_TRUE(model.fit(block).ok());
  auto assign = model.predict(block);
  ASSERT_TRUE(assign.ok());
  ASSERT_EQ(assign.value().size(), 500u);
  for (auto a : assign.value()) EXPECT_LT(a, 5u);
}

TEST(KMeansTest, FitReducesInertiaVsRandomInit) {
  KMeansConfig config;
  config.clusters = 5;
  auto block = make_block(1000, 0.0);

  // One iteration vs full fit: inertia must not increase.
  KMeansConfig one_iter = config;
  one_iter.max_iterations = 1;
  KMeans rough(one_iter);
  ASSERT_TRUE(rough.fit(block).ok());
  KMeans refined(config);
  ASSERT_TRUE(refined.fit(block).ok());
  EXPECT_LE(refined.inertia(block).value(),
            rough.inertia(block).value() * 1.01);
}

TEST(KMeansTest, PartialFitBootstrapsThenRefines) {
  KMeansConfig config;
  config.clusters = 5;
  KMeans model(config);
  // One generator => all blocks share the same cluster layout (a
  // continuous stream from one source).
  data::GeneratorConfig gen_config;
  gen_config.clusters = 5;
  gen_config.outlier_fraction = 0.0;
  gen_config.seed = 7;
  data::Generator gen(gen_config);

  auto first = gen.generate(300);
  ASSERT_TRUE(model.partial_fit(first).ok());
  EXPECT_TRUE(model.fitted());
  const auto inertia_before = model.inertia(first).value();

  for (int i = 0; i < 6; ++i) {
    auto block = gen.generate(300);
    ASSERT_TRUE(model.partial_fit(block).ok());
  }
  // Streaming updates on the same distribution must not blow up the fit.
  const auto inertia_after = model.inertia(first).value();
  EXPECT_LT(inertia_after, inertia_before * 2.0);
}

TEST(KMeansTest, FeatureMismatchRejected) {
  KMeans model;
  ASSERT_TRUE(model.fit(make_block(100)).ok());
  data::DataBlock narrow;
  narrow.rows = 2;
  narrow.cols = 4;
  narrow.values.assign(8, 0.0);
  EXPECT_EQ(model.score(narrow).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(model.partial_fit(narrow).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(model.predict(narrow).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(KMeansTest, FewerRowsThanClustersStillFits) {
  KMeansConfig config;
  config.clusters = 25;
  KMeans model(config);
  ASSERT_TRUE(model.fit(make_block(10, 0.0)).ok());
  EXPECT_TRUE(model.fitted());
  auto scores = model.score(make_block(10, 0.0));
  ASSERT_TRUE(scores.ok());
}

TEST(KMeansTest, SaveLoadRoundTripPreservesScores) {
  KMeansConfig config;
  config.clusters = 5;
  KMeans model(config);
  auto block = make_block(500);
  ASSERT_TRUE(model.fit(block).ok());
  const auto before = model.score(block).value();

  KMeans restored;
  ASSERT_TRUE(restored.load(model.save()).ok());
  const auto after = restored.score(block).value();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(before[i], after[i]);
  }
}

TEST(KMeansTest, LoadGarbageRejected) {
  KMeans model;
  EXPECT_FALSE(model.load(Bytes{1, 2, 3}).ok());
  Bytes zeros(16, 0);  // claims 0 clusters
  EXPECT_FALSE(model.load(zeros).ok());
}

TEST(KMeansTest, DeterministicWithSameSeed) {
  KMeansConfig config;
  config.clusters = 5;
  config.seed = 42;
  auto block = make_block(500);
  KMeans a(config), b(config);
  ASSERT_TRUE(a.fit(block).ok());
  ASSERT_TRUE(b.fit(block).ok());
  EXPECT_EQ(a.centers(), b.centers());
}

// Scoring cost should grow roughly linearly with cluster count — the
// knob behind the paper's "model complexity" axis.
class KMeansClusterSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KMeansClusterSweep, FitsAndScoresAtEveryK) {
  KMeansConfig config;
  config.clusters = GetParam();
  KMeans model(config);
  auto block = make_block(400);
  ASSERT_TRUE(model.fit(block).ok());
  auto scores = model.score(block);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores.value().size(), 400u);
  EXPECT_EQ(model.parameter_count(), GetParam() * 32u);
}

INSTANTIATE_TEST_SUITE_P(Ks, KMeansClusterSweep,
                         ::testing::Values(1, 2, 5, 10, 25, 50));

// ---------- bit-identity with the row-major scalar loop ----------

struct ReferenceModel {
  std::vector<double> centers;
  std::vector<std::uint64_t> counts;
};

// Lloyd's iterations from `model.centers` exactly as KMeans::fit runs them
// after k-means++ seeding, with the row-major reference search.
void reference_lloyd(ReferenceModel& model, const data::DataBlock& block,
                     const KMeansConfig& config) {
  const std::size_t k = config.clusters;
  const std::size_t features = block.cols;
  std::vector<std::size_t> assign(block.rows, 0);
  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    std::vector<double> sums(k * features, 0.0);
    std::vector<std::uint64_t> counts(k, 0);
    for (std::size_t r = 0; r < block.rows; ++r) {
      const double* row = block.values.data() + r * features;
      assign[r] = reference::nearest(model.centers, features, row).index;
      for (std::size_t f = 0; f < features; ++f) {
        sums[assign[r] * features + f] += row[f];
      }
      counts[assign[r]] += 1;
    }
    double movement = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;
      const double inv = 1.0 / static_cast<double>(counts[c]);
      for (std::size_t f = 0; f < features; ++f) {
        const double target = sums[c * features + f] * inv;
        const double d = target - model.centers[c * features + f];
        movement += d * d;
        model.centers[c * features + f] = target;
      }
    }
    if (std::sqrt(movement) < config.tolerance) break;
  }
  model.counts.assign(k, 0);
  for (std::size_t r = 0; r < block.rows; ++r) model.counts[assign[r]] += 1;
}

// One mini-batch block exactly as KMeans::partial_fit applies it.
void reference_partial_fit(ReferenceModel& model, const data::DataBlock& block,
                           const KMeansConfig& config) {
  const std::size_t features = block.cols;
  for (std::size_t r = 0; r < block.rows; ++r) {
    const double* row = block.values.data() + r * features;
    const std::size_t c =
        reference::nearest(model.centers, features, row).index;
    model.counts[c] += 1;
    if (config.max_center_weight > 0 &&
        model.counts[c] > config.max_center_weight) {
      model.counts[c] = config.max_center_weight;
    }
    const double eta = 1.0 / static_cast<double>(model.counts[c]);
    for (std::size_t f = 0; f < features; ++f) {
      double& center = model.centers[c * features + f];
      center += eta * (row[f] - center);
    }
  }
}

struct Shape {
  std::size_t clusters;
  std::size_t features;
};

// Names each case after its shape (e.g. k25_f32); CTest names the case
// after this.
void PrintTo(const Shape& s, std::ostream* os) {
  *os << 'k' << s.clusters << "_f" << s.features;
}

class KMeansReferenceTest : public ::testing::TestWithParam<Shape> {};

TEST_P(KMeansReferenceTest, FitPartialFitAndScoresEqualRowMajorLoop) {
  const auto [k, features] = GetParam();
  data::GeneratorConfig gen_config;
  gen_config.features = features;
  gen_config.clusters = 5;
  gen_config.seed = 100 + k * 7 + features;
  data::Generator gen(gen_config);

  KMeansConfig config;
  config.clusters = k;
  config.seed = 3;
  config.max_center_weight = 400;  // exercises the capped learning rate
  const auto first = gen.generate(std::max<std::size_t>(300, 3 * k));

  // k-means++ seeding does not search for nearest centers; a model with
  // no Lloyd iterations exposes the seeds the reference starts from.
  KMeansConfig seeds_only = config;
  seeds_only.max_iterations = 0;
  KMeans seeded(seeds_only);
  ASSERT_TRUE(seeded.fit(first).ok());
  ReferenceModel expected{seeded.centers(), {}};
  reference_lloyd(expected, first, config);

  KMeans model(config);
  ASSERT_TRUE(model.fit(first).ok());
  ASSERT_EQ(model.centers(), expected.centers);
  ASSERT_EQ(model.center_counts(), expected.counts);
  reference::expect_matches(model, first);

  for (int b = 0; b < 50; ++b) {
    const auto block = gen.generate(100);
    reference_partial_fit(expected, block, config);
    ASSERT_TRUE(model.partial_fit(block).ok());
  }
  ASSERT_EQ(model.centers(), expected.centers);
  ASSERT_EQ(model.center_counts(), expected.counts);
  reference::expect_matches(model, gen.generate(300));
}

std::vector<Shape> reference_shapes() {
  std::vector<Shape> shapes;
  for (std::size_t k : {1, 3, 4, 5, 25, 31, 32, 33, 100}) {
    for (std::size_t features : {1, 7, 32}) shapes.push_back({k, features});
  }
  return shapes;
}

INSTANTIATE_TEST_SUITE_P(Shapes, KMeansReferenceTest,
                         ::testing::ValuesIn(reference_shapes()));

TEST(KMeansTest, SetCentersRefreshesNearestSearch) {
  KMeansConfig config;
  config.clusters = 5;
  KMeans model(config);
  const auto block = make_block(400);
  ASSERT_TRUE(model.fit(block).ok());

  // Replace the 5 fitted centers with 7, then with 3, other values each
  // time: the search must see exactly the centers just set.
  Rng rng(21);
  for (std::size_t k : {7u, 3u}) {
    std::vector<double> centers(k * 32);
    for (auto& v : centers) v = rng.uniform(-10.0, 10.0);
    ASSERT_TRUE(
        model.set_centers(centers, std::vector<std::uint64_t>(k, 1), 32)
            .ok());
    ASSERT_EQ(model.centers(), centers);
    reference::expect_matches(model, block);
  }
}

TEST(KMeansTest, LoadRefreshesNearestSearch) {
  KMeansConfig five;
  five.clusters = 5;
  KMeans source(five);
  ASSERT_TRUE(source.fit(make_block(400, 0.05, 1)).ok());
  ASSERT_TRUE(source.partial_fit(make_block(200, 0.05, 2)).ok());

  // The target already holds a fitted model of another shape.
  KMeansConfig other;
  other.clusters = 25;
  KMeans target(other);
  ASSERT_TRUE(target.fit(make_block(400, 0.05, 3)).ok());
  ASSERT_TRUE(target.load(source.save()).ok());
  ASSERT_EQ(target.centers(), source.centers());

  const auto eval = make_block(300, 0.05, 4);
  reference::expect_matches(target, eval);
  EXPECT_EQ(target.score(eval).value(), source.score(eval).value());
}

}  // namespace
}  // namespace pe::ml
