// Micro-benchmarks for the ML workloads (google-benchmark).
//
// Quantifies the per-message model costs that drive Fig. 3's ranking:
// partial_fit and score per model kind and message size. The paper's
// "model complexity" axis is exactly these kernels.
#include <benchmark/benchmark.h>

#include "data/generator.h"
#include "ml/autoencoder.h"
#include "ml/factory.h"
#include "ml/isolation_forest.h"
#include "ml/kmeans.h"

namespace {

using namespace pe;

data::DataBlock make_block(std::size_t rows, std::uint64_t seed = 7) {
  data::GeneratorConfig config;
  config.seed = seed;
  data::Generator gen(config);
  return gen.generate(rows);
}

// Producer-side cost of one Mini-App block (32 features, 25 Gaussian
// clusters, 5% outliers): the generator runs ahead of every process_cloud
// call, so it is tracked next to the model kernels below.
void BM_GenerateBlock(benchmark::State& state) {
  data::GeneratorConfig config;
  config.seed = 7;
  data::Generator gen(config);
  const auto rows = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate(rows));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_GenerateBlock)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

template <ml::ModelKind Kind>
void BM_ModelPartialFit(benchmark::State& state) {
  auto model = ml::make_model(Kind);
  const auto rows = static_cast<std::size_t>(state.range(0));
  auto warmup = make_block(rows, 1);
  (void)model->partial_fit(warmup);
  std::uint64_t seed = 2;
  for (auto _ : state) {
    state.PauseTiming();
    auto block = make_block(rows, seed++);
    state.ResumeTiming();
    benchmark::DoNotOptimize(model->partial_fit(block));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_ModelPartialFit<ml::ModelKind::kKMeans>)
    ->Arg(25)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ModelPartialFit<ml::ModelKind::kIsolationForest>)
    ->Arg(25)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ModelPartialFit<ml::ModelKind::kAutoEncoder>)
    ->Arg(25)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

template <ml::ModelKind Kind>
void BM_ModelScore(benchmark::State& state) {
  auto model = ml::make_model(Kind);
  const auto rows = static_cast<std::size_t>(state.range(0));
  auto train = make_block(std::max<std::size_t>(rows, 512), 1);
  (void)model->fit(train);
  const auto block = make_block(rows, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->score(block));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_ModelScore<ml::ModelKind::kKMeans>)
    ->Arg(25)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ModelScore<ml::ModelKind::kIsolationForest>)
    ->Arg(25)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ModelScore<ml::ModelKind::kAutoEncoder>)
    ->Arg(25)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_KMeansClusterSweep(benchmark::State& state) {
  ml::KMeansConfig config;
  config.clusters = static_cast<std::size_t>(state.range(0));
  ml::KMeans model(config);
  auto train = make_block(2000, 1);
  (void)model.fit(train);
  const auto block = make_block(1000, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.score(block));
  }
}
BENCHMARK(BM_KMeansClusterSweep)
    ->Arg(5)->Arg(25)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_IsolationForestTreeSweep(benchmark::State& state) {
  ml::IsolationForestConfig config;
  config.trees = static_cast<std::size_t>(state.range(0));
  ml::IsolationForest model(config);
  auto train = make_block(2000, 1);
  (void)model.fit(train);
  const auto block = make_block(1000, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.score(block));
  }
}
BENCHMARK(BM_IsolationForestTreeSweep)
    ->Arg(10)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);

void BM_AutoEncoderEpochSweep(benchmark::State& state) {
  ml::AutoEncoderConfig config;
  config.epochs_per_fit = static_cast<std::size_t>(state.range(0));
  ml::AutoEncoder model(config);
  auto block = make_block(512, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.partial_fit(block));
  }
}
BENCHMARK(BM_AutoEncoderEpochSweep)
    ->Arg(1)->Arg(10)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_ModelSaveLoad(benchmark::State& state) {
  auto model = ml::make_model(ml::ModelKind::kKMeans);
  (void)model->fit(make_block(2000));
  for (auto _ : state) {
    auto bytes = model->save();
    auto fresh = ml::make_model(ml::ModelKind::kKMeans);
    benchmark::DoNotOptimize(fresh->load(bytes));
  }
}
BENCHMARK(BM_ModelSaveLoad);

}  // namespace

BENCHMARK_MAIN();
