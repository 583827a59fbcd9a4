// sensor_durable: 256 B sensor records into an 8-partition topic on a
// 3-broker durable cluster (acks=quorum, fsync before every append acks),
// produced through the batching ClusterProducer and drained by a 2-member
// ClusterConsumer group that verifies every poll and commits every 100 ms.
//
// Why: the path where an ack means durable and replicated. storage,
// cluster and broker do most of the work; transport and ml do none.
#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/broker_cluster.h"
#include "cluster/cluster_client.h"
#include "telemetry/metrics.h"
#include "workload.h"

namespace pebench {
namespace {

using pe::cluster::AckPolicy;
using pe::cluster::BrokerCluster;
using pe::cluster::ClusterConsumer;
using pe::cluster::ClusterProducer;

constexpr std::size_t kRecordBytes = 256;
constexpr std::uint32_t kPartitions = 8;
constexpr std::size_t kConsumers = 2;
constexpr const char* kTopic = "sensors";
constexpr const char* kGroup = "sensor-verifiers";
constexpr std::uint64_t kCommitIntervalNs = 100'000'000;
/// One flusher thread sends every partition's batches, each behind three
/// fdatasyncs, and every partition flushes once per linger. With the
/// default 5 ms linger it is saturated even at the reference rate. At
/// 20 ms (400 batches/s) a shared disk's slow fsyncs still queue batches
/// behind each other, so the p99 follows the disk's tail from run to run;
/// 50 ms (160 batches/s) leaves the flusher idle most of the time. The
/// 256 KiB size trigger never fires at the ladder's rates.
constexpr pe::Duration kLinger = std::chrono::milliseconds(50);

// Every record is written and fdatasync'ed on three replicas, so the
// disk sets this workload's capacity, and on a shared virtual disk that
// swings with other tenants' I/O. The ladder therefore stops at 2.5x the
// reference rate (50 000 records/s): sustained_rps shows a drop below
// that and reports the top rung above it. The p99 limit is generous so
// the climb is decided by throughput, not by one slow fsync.
const LadderPlan kPlan{
    .reference_rate = 20000,
    .ladder = {1.25, 1.5, 1.75, 2, 2.25, 2.5},
    .rung_seconds = 1.0,
    .warm_seconds = 1.0,
    .limit_ms = 250.0,
};

pe::broker::Record make_record(std::uint64_t seed, std::uint64_t seq) {
  pe::Bytes bytes(kRecordBytes);
  fill_record(bytes.data(), bytes.size(), seed, seq);
  pe::broker::Record record;
  record.value = pe::broker::Payload(std::move(bytes));
  return record;
}

struct Setup {
  std::string dir;
  std::shared_ptr<BrokerCluster> cluster;
  std::unique_ptr<ClusterProducer> producer;
  std::vector<std::unique_ptr<ClusterConsumer>> consumers;

  ~Setup() {
    if (producer) (void)producer->close();
    for (auto& c : consumers) (void)c->close();
    consumers.clear();
    producer.reset();
    cluster.reset();
    if (!dir.empty()) remove_tree(dir);
  }
};

/// Builds the cluster, topic, producer and group, and returns once one
/// warm-up record is quorum-acked. Null on failure.
std::unique_ptr<Setup> set_up(const Options& opt, int trial,
                              std::string* error) {
  auto s = std::make_unique<Setup>();
  s->dir = opt.run_root + "/cluster-" + std::to_string(trial);
  pe::cluster::ClusterOptions copts;
  copts.brokers = 3;
  copts.replication_factor = 3;
  copts.default_acks = AckPolicy::kQuorum;
  copts.durable_root = s->dir;
  copts.storage.flush_policy = pe::storage::FlushPolicy::kEverySync;
  s->cluster = std::make_shared<BrokerCluster>(copts);
  pe::cluster::ClusterTopicConfig topic{.partitions = kPartitions};
  // Bounded memory: older records live only in the durable segments.
  topic.retention.hot_max_bytes = 2ull << 20;
  // Bounded disk: consumers stay far closer to the head than this.
  topic.retention.max_bytes = 64ull << 20;
  if (auto st = s->cluster->create_topic(kTopic, topic); !st.ok()) {
    *error = "create_topic: " + st.to_string();
    return nullptr;
  }
  s->producer = std::make_unique<ClusterProducer>(
      s->cluster, pe::cluster::RetryConfig{}, AckPolicy::kQuorum);
  s->producer->enable_batching(pe::broker::BatchConfig{.linger = kLinger});
  pe::cluster::ClusterConsumerConfig ccfg;
  ccfg.auto_commit = false;
  for (std::size_t i = 0; i < kConsumers; ++i) {
    s->consumers.push_back(
        std::make_unique<ClusterConsumer>(s->cluster, kGroup, ccfg));
    if (auto st = s->consumers.back()->subscribe({kTopic}); !st.ok()) {
      *error = "subscribe: " + st.to_string();
      return nullptr;
    }
  }
  auto acked = s->producer->send(kTopic, 0, make_record(opt.seed, kWarmupSeq));
  if (!acked.ok()) {
    *error = "warm-up send: " + acked.status().to_string();
    return nullptr;
  }
  return s;
}

struct ConsumerTally {
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  std::uint64_t commit_errors = 0;
};

void consume(ClusterConsumer& consumer, Shared* shared,
             const Schedule& schedule,
             Delivered& delivered,
             std::array<std::atomic<std::uint64_t>, kPartitions>& high,
             const std::atomic<bool>& stop, ConsumerTally& tally) {
  const std::uint64_t t0 = shared->t0_ns.load();
  Tracer& tracer = Tracer::get();
  std::uint64_t last_commit = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    ScopedSpan iteration(kSpanConsume);
    std::vector<pe::broker::ConsumedRecord> records;
    {
      ScopedSpan span(kSpanClusterPoll);
      auto polled = consumer.poll(std::chrono::milliseconds(2));
      if (polled.ok()) records = std::move(polled).value();
      span.set_n(records.size());
    }
    ++tally.polls;
    if (records.empty()) {
      ++tally.empty_polls;
      continue;
    }
    const std::uint64_t now = mono_ns();
    {
      ScopedSpan span(kSpanVerify);
      for (const auto& r : records) {
        std::uint64_t seq = 0;
        const auto& v = r.record.value;
        if (v.size() != kRecordBytes || !check_record(v.data(), v.size(), &seq) ||
            (seq != kWarmupSeq &&
             (seq >= schedule.total() || seq % kPartitions != r.partition))) {
          shared->corrupt.fetch_add(1);
          continue;
        }
        if (seq == kWarmupSeq) continue;
        if (!delivered.first(seq)) {
          shared->duplicates.fetch_add(1);
          continue;
        }
        // high[p] is one past the highest seq delivered on partition p.
        if (atomic_max(high[r.partition], seq + 1) > seq) {
          shared->out_of_order.fetch_add(1);
        }
        tracer.record(kSpanClusterDeliver, seq, 1, now, now);
        record_done(shared, schedule, t0, seq, now);
      }
    }
    // Commit what was delivered at most every kCommitInterval: a
    // replicated, quorum-acked commit per poll would put an fsync on
    // every record's path and let the commit cadence set the latency.
    if (now - last_commit >= kCommitIntervalNs) {
      ScopedSpan span(kSpanClusterCommit);
      if (!consumer.commit().ok()) ++tally.commit_errors;
      last_commit = now;
    }
  }
  if (!consumer.commit().ok()) ++tally.commit_errors;
}

}  // namespace

Outcome run_sensor_durable(const Options& opt) {
  Outcome out;
  std::vector<double> setups;
  std::unique_ptr<Setup> setup;
  for (int trial = 0; trial < kSetupTrials; ++trial) {
    setup.reset();
    const std::uint64_t begin = mono_ns();
    std::string error;
    setup = set_up(opt, trial, &error);
    if (!setup) {
      out.fail("set-up: " + error);
      return out;
    }
    setups.push_back(static_cast<double>(mono_ns() - begin) / 1e9);
  }

  const Schedule schedule = make_schedule(kPlan, opt.seconds, opt.trace);
  Shared* shared = map_shared();
  if (shared == nullptr) {
    out.fail("mmap of shared state");
    return out;
  }
  shared->t0_ns.store(mono_ns() + 20'000'000);
  const std::uint64_t t0 = shared->t0_ns.load();
  if (opt.trace) {
    const std::size_t traced = schedule.find(Rung::Kind::kReferenceTraced);
    Tracer::get().configure(0, t0 + schedule.start_ns(traced),
                            t0 + schedule.end_ns(traced), 4'000'000);
  }
  const std::uint64_t fsyncs0 = counter_value("storage.fsyncs");
  const std::uint64_t produced0 = counter_value("cluster.records_produced");
  const std::uint64_t replicated0 = counter_value("cluster.replicated_records");

  Delivered delivered(schedule.total());
  std::array<std::atomic<std::uint64_t>, kPartitions> high{};
  std::atomic<bool> stop_consumers{false};
  std::vector<ConsumerTally> tallies(kConsumers);
  std::vector<std::thread> consumers;
  for (std::size_t i = 0; i < kConsumers; ++i) {
    consumers.emplace_back([&, i] {
      consume(*setup->consumers[i], shared, schedule, delivered, high,
              stop_consumers, tallies[i]);
    });
  }
  CpuSampler cpu(shared, schedule, 0);
  LadderMonitor monitor(shared, schedule, kPlan.limit_ms);
  monitor.start();

  std::atomic<bool> generating{true};
  std::thread generator([&] {
    Pacer pacer(shared, schedule);
    pacer.start(t0);
    for (std::uint64_t seq = pacer.next(); seq < schedule.total();
         seq = pacer.next()) {
      ScopedSpan iteration(kSpanLoadgen, seq);
      pe::broker::Record record = make_record(opt.seed, seq);
      pacer.sent(seq, mono_ns());
      ScopedSpan span(kSpanClusterEnqueue, seq);
      if (!setup->producer
               ->enqueue(kTopic, static_cast<std::uint32_t>(seq % kPartitions),
                         std::move(record))
               .ok()) {
        shared->refused.fetch_add(1);
      }
    }
    generating.store(false);
  });

  double hot_peak = 0.0;
  auto sample_hot = [&] {
    double bytes = 0.0;
    for (std::uint32_t b = 0; b < setup->cluster->broker_count(); ++b) {
      bytes += static_cast<double>(setup->cluster->broker(b)->hot_window_bytes());
    }
    hot_peak = std::max(hot_peak, bytes);
  };
  while (generating.load()) {
    sample_hot();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  generator.join();
  (void)setup->producer->flush();
  const auto batch = setup->producer->batch_stats();
  shared->refused.fetch_add(batch.records_dropped);
  const std::uint64_t drain_deadline = mono_ns() + 10'000'000'000ull;
  while (shared->processed.load() + shared->refused.load() <
             shared->generated.load() &&
         mono_ns() < drain_deadline) {
    sample_hot();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  monitor.stop();
  cpu.stop();
  stop_consumers.store(true);
  for (auto& t : consumers) t.join();
  shared->lost.store(delivered.missing(shared->generated.load()));

  summarize(*shared, schedule, monitor.result(), 1, setups, out);

  // --- per-layer ---
  const auto pstats = setup->producer->stats();
  std::uint64_t polls = 0, empty = 0, commit_errors = 0;
  for (const auto& t : tallies) {
    polls += t.polls;
    empty += t.empty_polls;
    commit_errors += t.commit_errors;
  }
  if (commit_errors > 0) {
    out.notes.push_back("commit errors: " + std::to_string(commit_errors));
  }
  auto delta = [&](const char* name, std::uint64_t before) {
    return static_cast<double>(counter_or_absent(name, out) - before);
  };
  const double generated = static_cast<double>(shared->generated.load());
  std::vector<Span> spans = Tracer::get().take();
  out.layer_span_us("cluster.enqueue_us", spans, kSpanClusterEnqueue);
  out.layer("cluster.records_per_batch",
            ratio(static_cast<double>(batch.records_flushed),
                  static_cast<double>(batch.batches_flushed)),
            "records");
  std::vector<double> ingest =
      join_on_id(spans, kSpanClusterEnqueue, kSpanClusterDeliver);
  for (auto& v : ingest) v /= 1e6;
  out.layer_pct("cluster.ingest_ms", std::move(ingest), "ms");
  out.layer_span_us("cluster.poll_us", spans, kSpanClusterPoll);
  out.layer("cluster.poll_empty_frac",
            ratio(static_cast<double>(empty), static_cast<double>(polls)),
            "ratio");
  out.layer_span_us("cluster.commit_us", spans, kSpanClusterCommit);
  out.layer("cluster.produce_retries", static_cast<double>(pstats.retries),
            "count");
  out.layer("cluster.throttle_waits",
            static_cast<double>(pstats.throttle_waits), "count");
  out.layer("cluster.replication_ratio",
            ratio(delta("cluster.replicated_records", replicated0),
                  delta("cluster.records_produced", produced0)),
            "ratio");
  out.layer("storage.fsyncs_per_krec",
            ratio(1000.0 * delta("storage.fsyncs", fsyncs0), generated),
            "count");
  const auto histograms = pe::tel::MetricsRegistry::global().histograms();
  if (auto it = histograms.find("storage.fsync_us"); it != histograms.end()) {
    out.layer("storage.fsync_us.p50", it->second.p50, "us");
    out.layer("storage.fsync_us.p99", it->second.p99, "us");
  } else {
    out.notes.push_back("histogram absent: storage.fsync_us");
  }
  out.layer("broker.hot_window_peak_mb", hot_peak / (1024.0 * 1024.0), "MiB");
  if (opt.trace) summarize_trace(spans, *shared, schedule, 1, opt, out);

  setup.reset();
  unmap_shared(shared);
  return out;
}

}  // namespace pebench
