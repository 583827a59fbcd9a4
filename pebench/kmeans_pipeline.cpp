// kmeans_pipeline: the paper's Listing 2 application on
// EdgeToCloudPipeline. Two edge devices produce 1000 x 32 blocks from
// data::Generator (~256 KB, the mid size of Fig. 2/3) into two partitions;
// two processing tasks run make_model_process(kKMeans) with the parameter
// server on. The benchmark's produce function waits until each block is
// due (open loop) and its wrapper around the process function times it.
//
// Why: ml and core (pipeline, taskexec, paramserver) do most of the work;
// broker carries a few large zero-copy payloads; storage, cluster and
// transport do none.
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/functions.h"
#include "core/pipeline.h"
#include "data/generator.h"
#include "ml/outlier.h"
#include "network/fabric.h"
#include "resource/pilot_manager.h"
#include "workload.h"

namespace pebench {
namespace {

constexpr std::size_t kDevices = 2;
constexpr std::size_t kRows = 1000;
constexpr std::size_t kFeatures = 32;
constexpr const char* kTopic = "pe-data";
/// Contamination the process function flags at (its default).
constexpr double kContamination = 0.05;
/// Gate: share of generator-labelled outlier rows the model must flag.
constexpr double kRecallFloor = 0.90;
/// The produce function sleeps until this long before a block is due and
/// spins the rest: on a virtual machine a core woken from idle often
/// starts a few hundred us late, and at ~150 blocks a second that
/// lateness alone would decide the p99.
constexpr std::uint64_t kSpinNs = 300'000;

// Generating a block costs ~2 ms and processing it ~1.2 ms of CPU, so
// this workload saturates a 4-core host near 900 blocks/s. The ladder
// stops at 3x the reference rate (450 blocks/s): sustained_rps shows a
// drop below that and reports the top rung above it. Climbing further
// loads the host enough to slow the runs after it. Four coarse rungs
// leave most of the run to the reference rung, whose p99 rests on only
// ~150 blocks a second.
const LadderPlan kPlan{
    .reference_rate = 150,
    .ladder = {1.5, 2, 2.5, 3},
    .rung_seconds = 1.0,
    .warm_seconds = 1.0,
    .limit_ms = 100.0,
};

std::uint64_t fingerprint(const pe::data::DataBlock& b) {
  std::uint64_t h = b.rows * 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < 4 && i < b.values.size(); ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &b.values[i], 8);
    h = (h ^ bits) * 0x100000001B3ull;
  }
  return h;
}

/// State shared by the produce and process functions of one trial.
struct Run {
  const Options* opt = nullptr;
  const Schedule* schedule = nullptr;
  Shared* shared = nullptr;
  bool warm_only = true;           // trial ends after the warm-up block
  std::atomic<bool> warmup_sent{false};
  std::unique_ptr<Delivered> delivered;
  std::unique_ptr<Delivered> sent;  // devices stop independently
  std::mutex mutex;
  std::unordered_map<std::uint64_t, std::uint64_t> seq_of;  // fingerprint
  std::atomic<std::uint64_t> outlier_rows{0};
  std::atomic<std::uint64_t> flagged_outliers{0};
  std::atomic<std::uint64_t> unknown_blocks{0};
  std::atomic<std::uint64_t> process_errors{0};
};

pe::core::ProduceFnFactory make_produce(Run& run) {
  return [&run](std::size_t device) -> pe::core::ProduceFn {
    auto gen = std::make_shared<pe::data::Generator>(pe::data::GeneratorConfig{
        .features = kFeatures, .seed = run.opt->seed * 1000 + device});
    auto invocation = std::make_shared<std::uint64_t>(0);
    return [&run, gen, device, invocation](pe::core::FunctionContext&)
               -> pe::Result<pe::data::DataBlock> {
      if (device == 0 && !run.warmup_sent.exchange(true)) {
        pe::data::Generator warm(pe::data::GeneratorConfig{
            .features = kFeatures, .seed = run.opt->seed * 1000 + 999});
        auto block = warm.generate(kRows);
        std::lock_guard lock(run.mutex);
        run.seq_of[fingerprint(block)] = kWarmupSeq;
        return block;
      }
      if (run.warm_only) return pe::Status::Cancelled("warm-up only");
      while (run.shared->t0_ns.load() == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const std::uint64_t t0 = run.shared->t0_ns.load();
      const Schedule& schedule = *run.schedule;
      const std::uint64_t seq = (*invocation)++ * kDevices + device;
      if (seq >= schedule.total() ||
          schedule.rung_of(seq) >= run.shared->stop_rung.load()) {
        return pe::Status::Cancelled("schedule done");
      }
      const std::uint64_t due = t0 + schedule.offset_ns(seq);
      std::uint64_t now = mono_ns();
      if (now + kSpinNs < due) sleep_until_ns(due - kSpinNs);
      while ((now = mono_ns()) < due) {
      }
      run.shared->late.add(now > due ? now - due : 0);
      Pacer(run.shared, schedule).sent(seq, now);
      run.sent->first(seq);
      pe::data::DataBlock block;
      {
        ScopedSpan span(kSpanDataGenerate, seq);
        block = gen->generate(kRows);
      }
      std::lock_guard lock(run.mutex);
      run.seq_of[fingerprint(block)] = seq;
      return block;
    };
  };
}

pe::core::ProcessFnFactory wrap_process(Run& run,
                                        pe::core::ProcessFnFactory inner) {
  return [&run, inner]() -> pe::core::ProcessFn {
    pe::core::ProcessFn fn = inner();
    return [&run, fn](pe::core::FunctionContext& ctx,
                      pe::data::DataBlock block)
               -> pe::Result<pe::core::ProcessResult> {
      const std::uint64_t key = fingerprint(block);
      std::uint64_t seq = 0;
      bool known = false;
      {
        std::lock_guard lock(run.mutex);
        auto it = run.seq_of.find(key);
        if (it != run.seq_of.end()) {
          seq = it->second;
          known = true;
          run.seq_of.erase(it);
        }
      }
      const std::vector<std::uint8_t> labels = block.labels;
      pe::Result<pe::core::ProcessResult> result = pe::Status::Ok();
      {
        ScopedSpan span(kSpanMlProcess, known ? seq : kNoId);
        result = fn(ctx, std::move(block));
      }
      const std::uint64_t end = mono_ns();
      if (!result.ok()) {
        run.process_errors.fetch_add(1);
        return result;
      }
      if (!known) {
        run.unknown_blocks.fetch_add(1);
        return result;
      }
      if (seq == kWarmupSeq || run.warm_only) return result;
      if (!run.delivered->first(seq)) {
        run.shared->duplicates.fetch_add(1);
        return result;
      }
      // Recall against the generator's labels, flagging exactly as the
      // process function does (score at or above the contamination
      // quantile).
      const auto& scores = result.value().scores;
      const double threshold =
          pe::ml::score_quantile(scores, 1.0 - kContamination);
      std::uint64_t outliers = 0, flagged = 0;
      for (std::size_t i = 0; i < labels.size() && i < scores.size(); ++i) {
        if (labels[i] != 1) continue;
        ++outliers;
        if (scores[i] >= threshold && scores[i] > 0.0) ++flagged;
      }
      run.outlier_rows.fetch_add(outliers);
      run.flagged_outliers.fetch_add(flagged);
      record_done(run.shared, *run.schedule, run.shared->t0_ns.load(), seq, end);
      return result;
    };
  };
}

struct Trial {
  std::shared_ptr<pe::net::Fabric> fabric;
  std::unique_ptr<pe::res::PilotManager> pilots;
  std::unique_ptr<pe::core::EdgeToCloudPipeline> pipeline;
  ~Trial() {
    if (pipeline) pipeline->stop();
    pipeline.reset();
    pilots.reset();
  }
};

/// Pilots, broker topic and pipeline; returns once the warm-up block was
/// accepted by the broker.
bool set_up(Trial& t, Run& run, std::string* error) {
  t.fabric = make_loopback_fabric();
  pe::res::PilotManagerOptions popts;
  popts.startup_delay_factor = 0.001;
  t.pilots = std::make_unique<pe::res::PilotManager>(t.fabric, popts);
  std::vector<pe::res::PilotPtr> edges;
  for (std::size_t i = 0; i < kDevices; ++i) {
    auto p = t.pilots->submit(pe::res::Flavors::raspi("s"));
    if (!p.ok()) {
      *error = "edge pilot: " + p.status().to_string();
      return false;
    }
    edges.push_back(p.value());
  }
  auto cloud = t.pilots->submit(pe::res::Flavors::lrz_medium("s"));
  auto broker = t.pilots->submit(
      pe::res::Flavors::make("s", pe::res::Backend::kBrokerService, 2, 8.0));
  if (!cloud.ok() || !broker.ok() || !t.pilots->wait_all_active().ok()) {
    *error = "pilot activation";
    return false;
  }
  // Bounded memory: processed blocks need not stay in the broker.
  pe::broker::TopicConfig topic;
  topic.partitions = kDevices;
  topic.retention.max_bytes = 64ull << 20;
  if (!broker.value()->broker()->create_topic(kTopic, topic).ok()) {
    *error = "create_topic";
    return false;
  }
  pe::core::PipelineConfig config;
  config.topic = kTopic;
  config.edge_devices = kDevices;
  config.partitions = kDevices;
  config.processing_tasks = kDevices;
  config.rows_per_message = kRows;
  config.messages_per_device = run.schedule->total() + 1;
  config.enable_parameter_server = true;
  // A run that cannot drain fails here, well inside the run's time limit.
  config.run_timeout = std::chrono::seconds(60);
  t.pipeline = std::make_unique<pe::core::EdgeToCloudPipeline>(config);
  for (auto& e : edges) t.pipeline->add_pilot_edge(e);
  t.pipeline->set_fabric(t.fabric)
      .set_pilot_cloud_processing(cloud.value())
      .set_pilot_cloud_broker(broker.value())
      .set_produce_function(make_produce(run))
      .set_process_cloud_function(
          wrap_process(run, pe::core::functions::make_model_process(
                                pe::ml::ModelKind::kKMeans)));
  if (auto s = t.pipeline->start(); !s.ok()) {
    *error = "pipeline start: " + s.to_string();
    return false;
  }
  const std::uint64_t deadline = mono_ns() + 10'000'000'000ull;
  while (t.pipeline->messages_produced() == 0) {
    if (mono_ns() > deadline) {
      *error = "warm-up block not accepted";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

}  // namespace

Outcome run_kmeans_pipeline(const Options& opt) {
  Outcome out;
  const Schedule schedule = make_schedule(kPlan, opt.seconds, opt.trace);
  Shared* shared = map_shared();
  if (shared == nullptr) {
    out.fail("mmap of shared state");
    return out;
  }
  std::vector<double> setups;
  std::unique_ptr<Trial> trial;
  std::unique_ptr<Run> run;
  for (int i = 0; i < kSetupTrials; ++i) {
    if (trial) (void)trial->pipeline->wait();
    trial.reset();
    run = std::make_unique<Run>();
    run->opt = &opt;
    run->schedule = &schedule;
    run->shared = shared;
    run->warm_only = i + 1 < kSetupTrials;
    run->delivered = std::make_unique<Delivered>(schedule.total());
    run->sent = std::make_unique<Delivered>(schedule.total());
    trial = std::make_unique<Trial>();
    const std::uint64_t begin = mono_ns();
    std::string error;
    if (!set_up(*trial, *run, &error)) {
      out.fail("set-up: " + error);
      trial.reset();
      unmap_shared(shared);
      return out;
    }
    setups.push_back(static_cast<double>(mono_ns() - begin) / 1e9);
  }

  const std::uint64_t t0 = mono_ns() + 20'000'000;
  if (opt.trace) {
    const std::size_t traced = schedule.find(Rung::Kind::kReferenceTraced);
    Tracer::get().configure(0, t0 + schedule.start_ns(traced),
                            t0 + schedule.end_ns(traced), 2'000'000);
  }
  shared->t0_ns.store(t0);
  CpuSampler cpu(shared, schedule, 0);
  LadderMonitor monitor(shared, schedule, kPlan.limit_ms);
  monitor.start();
  const pe::Status waited = trial->pipeline->wait();
  if (!waited.ok()) out.fail("pipeline: " + waited.to_string());
  monitor.stop();
  cpu.stop();
  const pe::core::PipelineRunReport report = trial->pipeline->report();
  trial->pipeline->stop();
  shared->lost.store(run->delivered->missing(schedule.total(), run->sent.get()));

  summarize(*shared, schedule, monitor.result(), 1, setups, out);
  if (run->unknown_blocks.load() > 0) {
    out.fail(std::to_string(run->unknown_blocks.load()) +
             " processed blocks were never produced");
  }
  if (run->process_errors.load() > 0) {
    out.fail(std::to_string(run->process_errors.load()) + " process errors");
  }
  const double recall =
      ratio(static_cast<double>(run->flagged_outliers.load()),
            static_cast<double>(run->outlier_rows.load()));
  if (recall < kRecallFloor) {
    out.fail("ml.outlier_recall " + std::to_string(recall) + " below floor " +
             std::to_string(kRecallFloor));
  }

  // Task threads flush their spans when they exit, with the pilots.
  trial.reset();
  std::vector<Span> spans = Tracer::get().take();
  out.layer_span_us("data.generate_us", spans, kSpanDataGenerate);
  out.layer_span_us("ml.process_us", spans, kSpanMlProcess);
  out.layer("core.ingress_ms.p50", report.run.ingress_ms.p50, "ms");
  out.layer("core.ingress_ms.p99", report.run.ingress_ms.p99, "ms");
  const auto& run_report = report.run;
  out.layer("core.broker_residency_ms.p50", run_report.broker_residency_ms.p50,
            "ms");
  out.layer("core.broker_residency_ms.p99", run_report.broker_residency_ms.p99,
            "ms");
  out.layer("core.processing_ms.p50", report.run.processing_ms.p50, "ms");
  out.layer("core.processing_ms.p99", report.run.processing_ms.p99, "ms");
  out.layer("ml.outlier_recall", recall, "ratio");
  if (opt.trace) summarize_trace(spans, *shared, schedule, 1, opt, out);

  trial.reset();
  run.reset();
  unmap_shared(shared);
  return out;
}

}  // namespace pebench
