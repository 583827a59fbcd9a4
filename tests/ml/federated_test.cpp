#include "ml/federated.h"

#include <gtest/gtest.h>

#include "data/generator.h"
#include "kmeans_reference.h"
#include "ml/autoencoder.h"
#include "ml/kmeans.h"
#include "ml/outlier.h"

namespace pe::ml::fed {
namespace {

data::DataBlock party_block(std::uint64_t seed, std::size_t rows = 400) {
  data::GeneratorConfig config;
  config.clusters = 5;
  config.seed = seed;          // same seed -> same cluster layout
  data::Generator gen(config);
  return gen.generate(rows);
}

AutoEncoderConfig ae_config() {
  AutoEncoderConfig config;
  config.epochs_per_fit = 8;
  return config;
}

TEST(FedAvgAutoEncoderTest, AverageOfIdenticalModelsIsIdentical) {
  AutoEncoder model(ae_config());
  ASSERT_TRUE(model.fit(party_block(1)).ok());
  const Bytes saved = model.save();

  auto averaged = average_autoencoders({saved, saved, saved});
  ASSERT_TRUE(averaged.ok());
  AutoEncoder restored;
  ASSERT_TRUE(restored.load(averaged.value()).ok());
  // Network weights match up to float rounding (w/3 summed thrice);
  // scores can differ by a hair more because pooling three identical
  // scalers changes the sample-variance denominator ((3c-1) vs (c-1)).
  for (std::size_t l = 0; l < model.layer_weights().size(); ++l) {
    const auto& a = model.layer_weights()[l].storage();
    const auto& b = restored.layer_weights()[l].storage();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i], b[i], 1e-12);
    }
  }
  auto block = party_block(9);
  const auto a = model.score(block).value();
  const auto b = restored.score(block).value();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 0.01);
  }
}

TEST(FedAvgAutoEncoderTest, GlobalModelStillDetectsOutliers) {
  // Three parties train on local data from the same underlying process.
  std::vector<Bytes> locals;
  std::vector<double> weights;
  AutoEncoderConfig config = ae_config();
  for (std::uint64_t p = 0; p < 3; ++p) {
    config.seed = 100;  // common init helps averaging, like FedAvg rounds
    AutoEncoder party(config);
    auto block = party_block(50 + p);  // different local data
    ASSERT_TRUE(party.fit(block).ok());
    locals.push_back(party.save());
    weights.push_back(static_cast<double>(block.rows));
  }
  auto averaged = average_autoencoders(locals, weights);
  ASSERT_TRUE(averaged.ok());
  AutoEncoder global;
  ASSERT_TRUE(global.load(averaged.value()).ok());

  auto eval = party_block(99, 1500);
  auto scores = global.score(eval);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(roc_auc(scores.value(), eval.labels), 0.8);
}

TEST(FedAvgAutoEncoderTest, WeightsAreActualWeightedMeans) {
  AutoEncoderConfig config = ae_config();
  config.seed = 5;
  AutoEncoder a(config), b(config);
  ASSERT_TRUE(a.fit(party_block(1)).ok());
  ASSERT_TRUE(b.fit(party_block(2)).ok());
  auto averaged = average_autoencoders({a.save(), b.save()}, {3.0, 1.0});
  ASSERT_TRUE(averaged.ok());
  AutoEncoder global;
  ASSERT_TRUE(global.load(averaged.value()).ok());

  const double wa = a.layer_weights()[0].storage()[0];
  const double wb = b.layer_weights()[0].storage()[0];
  const double wg = global.layer_weights()[0].storage()[0];
  EXPECT_NEAR(wg, 0.75 * wa + 0.25 * wb, 1e-12);
}

TEST(FedAvgAutoEncoderTest, ArchitectureMismatchRejected) {
  AutoEncoder standard(ae_config());
  ASSERT_TRUE(standard.fit(party_block(1)).ok());
  AutoEncoderConfig small = ae_config();
  small.hidden_layers = {8, 8};
  AutoEncoder tiny(small);
  ASSERT_TRUE(tiny.fit(party_block(2)).ok());
  EXPECT_FALSE(average_autoencoders({standard.save(), tiny.save()}).ok());
}

TEST(FedAvgAutoEncoderTest, InputValidation) {
  EXPECT_FALSE(average_autoencoders({}).ok());
  AutoEncoder model(ae_config());
  ASSERT_TRUE(model.fit(party_block(1)).ok());
  EXPECT_FALSE(average_autoencoders({model.save()}, {1.0, 2.0}).ok());
  EXPECT_FALSE(average_autoencoders({model.save()}, {0.0}).ok());
  EXPECT_FALSE(average_autoencoders({model.save()}, {-1.0}).ok());
  EXPECT_FALSE(average_autoencoders({Bytes{1, 2, 3}}).ok());
}

TEST(FedAvgKMeansTest, AverageOfIdenticalModelsIsIdentical) {
  KMeansConfig config;
  config.clusters = 5;
  KMeans model(config);
  ASSERT_TRUE(model.fit(party_block(1)).ok());
  auto averaged = average_kmeans({model.save(), model.save()});
  ASSERT_TRUE(averaged.ok());
  KMeans restored;
  ASSERT_TRUE(restored.load(averaged.value()).ok());
  const auto& a = model.centers();
  const auto& b = restored.centers();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(FedAvgKMeansTest, CentersAreWeightedMeans) {
  KMeansConfig config;
  config.clusters = 2;
  config.seed = 3;
  KMeans a(config), b(config);
  ASSERT_TRUE(a.fit(party_block(1, 100)).ok());
  ASSERT_TRUE(b.fit(party_block(1, 100)).ok());  // same data+seed => equal
  auto averaged = average_kmeans({a.save(), b.save()}, {1.0, 1.0});
  ASSERT_TRUE(averaged.ok());
  KMeans global;
  ASSERT_TRUE(global.load(averaged.value()).ok());
  EXPECT_NEAR(global.centers()[0],
              0.5 * a.centers()[0] + 0.5 * b.centers()[0], 1e-12);
  // Counts pool across parties.
  std::uint64_t total = 0;
  for (auto c : global.center_counts()) total += c;
  EXPECT_EQ(total, 200u);
}

TEST(FedAvgKMeansTest, GlobalModelScores) {
  std::vector<Bytes> locals;
  KMeansConfig config;
  config.clusters = 5;
  config.seed = 7;
  for (std::uint64_t p = 0; p < 3; ++p) {
    KMeans party(config);
    ASSERT_TRUE(party.fit(party_block(60 + p)).ok());
    locals.push_back(party.save());
  }
  auto averaged = average_kmeans(locals);
  ASSERT_TRUE(averaged.ok());
  KMeans global;
  ASSERT_TRUE(global.load(averaged.value()).ok());
  auto eval = party_block(99, 1000);
  auto scores = global.score(eval);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores.value().size(), 1000u);
}

TEST(FedAvgKMeansTest, GlobalModelSearchesTheAveragedCenters) {
  // One FedAvg round into a model that already holds fitted centers of
  // its own: after load() its nearest-center search must run over the
  // averaged centers, and a further local round must keep it in step.
  std::vector<Bytes> locals;
  KMeansConfig config;
  config.clusters = 5;
  config.seed = 7;
  for (std::uint64_t p = 0; p < 2; ++p) {
    KMeans party(config);
    ASSERT_TRUE(party.fit(party_block(70 + p)).ok());
    locals.push_back(party.save());
  }
  auto averaged = average_kmeans(locals);
  ASSERT_TRUE(averaged.ok());

  KMeans global(config);
  ASSERT_TRUE(global.fit(party_block(80)).ok());
  ASSERT_TRUE(global.load(averaged.value()).ok());
  reference::expect_matches(global, party_block(99, 500));
  ASSERT_TRUE(global.partial_fit(party_block(81)).ok());
  reference::expect_matches(global, party_block(99, 500));
}

TEST(FedAvgKMeansTest, ShapeMismatchRejected) {
  KMeansConfig five;
  five.clusters = 5;
  KMeansConfig three;
  three.clusters = 3;
  KMeans a(five), b(three);
  ASSERT_TRUE(a.fit(party_block(1)).ok());
  ASSERT_TRUE(b.fit(party_block(2)).ok());
  EXPECT_FALSE(average_kmeans({a.save(), b.save()}).ok());
}

}  // namespace
}  // namespace pe::ml::fed
