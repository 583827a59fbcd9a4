// BrokerCluster functional coverage: deterministic sharding, leader
// routing, synchronous + catch-up replication, ack policies, epoch
// fencing, the cluster clients' retry behavior, and consumers that wait
// on the cluster's progress signal.
#include "cluster/broker_cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "cluster/cluster_client.h"
#include "cluster/shard_map.h"
#include "telemetry/metrics.h"

namespace pe::cluster {
namespace {

using namespace std::chrono_literals;

broker::Record make_record(const std::string& key, std::size_t value_size = 32,
                           std::uint8_t fill = 0x5a) {
  broker::Record r;
  r.key = key;
  r.value = Bytes(value_size, fill);
  return r;
}

/// Spins (wall-bounded) until `pred` holds; cluster timings are a few
/// emulated milliseconds, so two wall seconds is generous.
template <typename Pred>
bool wait_until(Pred pred, std::chrono::milliseconds wall_budget = 2000ms) {
  Stopwatch sw;
  while (sw.elapsed_ms() < static_cast<double>(wall_budget.count())) {
    if (pred()) return true;
    Clock::sleep_exact(1ms);
  }
  return pred();
}

ClusterOptions fast_options(std::uint32_t brokers = 3,
                            std::uint32_t rf = 3) {
  ClusterOptions o;
  o.brokers = brokers;
  o.replication_factor = rf;
  o.heartbeat_interval = 1ms;
  o.session_timeout = 6ms;
  o.ack_timeout = 40ms;
  return o;
}

TEST(ShardMapTest, DeterministicAcrossCalls) {
  for (std::uint32_t p = 0; p < 8; ++p) {
    EXPECT_EQ(assign_replicas("telemetry", p, 5, 3),
              assign_replicas("telemetry", p, 5, 3));
  }
  EXPECT_EQ(stable_hash("telemetry"), stable_hash("telemetry"));
  EXPECT_NE(stable_hash("telemetry"), stable_hash("telemetrz"));
}

TEST(ShardMapTest, ReplicaSetsAreDistinctAndCapped) {
  auto replicas = assign_replicas("t", 0, 5, 3);
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_EQ(std::set<BrokerId>(replicas.begin(), replicas.end()).size(), 3u);
  // RF capped at the broker count.
  EXPECT_EQ(assign_replicas("t", 0, 2, 3).size(), 2u);
  EXPECT_TRUE(assign_replicas("t", 0, 0, 3).empty());
}

TEST(ShardMapTest, LeadersRotateAcrossPartitions) {
  // Consecutive partitions anchor at consecutive ring positions, so a
  // multi-partition topic spreads its leaders over the cluster.
  std::set<BrokerId> leaders;
  for (std::uint32_t p = 0; p < 5; ++p) {
    leaders.insert(assign_replicas("events", p, 5, 3)[0]);
  }
  EXPECT_EQ(leaders.size(), 5u);
}

TEST(ClusterTest, CreateTopicAssignsLeadersAndReplicas) {
  BrokerCluster cluster(fast_options());
  ClusterTopicConfig four;
  four.partitions = 4;
  ASSERT_TRUE(cluster.create_topic("events", four).ok());
  EXPECT_TRUE(cluster.has_topic("events"));
  EXPECT_EQ(cluster.partition_count("events"), 4u);
  for (std::uint32_t p = 0; p < 4; ++p) {
    auto meta = cluster.metadata("events", p);
    ASSERT_TRUE(meta.ok());
    EXPECT_EQ(meta.value().replicas.size(), 3u);
    EXPECT_NE(meta.value().leader, kNoBroker);
    EXPECT_EQ(meta.value().epoch, 1u);
    // The leader is the preferred (first) replica on a fresh cluster.
    EXPECT_EQ(meta.value().leader, meta.value().replicas[0]);
  }
  // The offsets topic exists on every member.
  EXPECT_TRUE(cluster.has_topic(kOffsetsTopic));
  for (BrokerId id = 0; id < cluster.broker_count(); ++id) {
    EXPECT_TRUE(cluster.broker(id)->has_topic(kOffsetsTopic));
  }
}

TEST(ClusterTest, ProduceViaNonLeaderFailsNotLeaderAndIsTransient) {
  BrokerCluster cluster(fast_options());
  ASSERT_TRUE(cluster.create_topic("events").ok());
  auto leader = cluster.leader("events", 0);
  ASSERT_TRUE(leader.ok());
  const BrokerId wrong = (leader.value() + 1) % cluster.broker_count();
  auto produced = cluster.produce(wrong, "events", 0, {make_record("k")});
  ASSERT_FALSE(produced.ok());
  EXPECT_EQ(produced.status().code(), StatusCode::kNotLeader);
  // Clients treat NOT_LEADER as transient: refresh metadata and retry.
  EXPECT_TRUE(produced.status().is_transient());
}

TEST(ClusterTest, ReplicationConvergesWithIdenticalContent) {
  BrokerCluster cluster(fast_options());
  ASSERT_TRUE(cluster.create_topic("events").ok());
  auto leader = cluster.leader("events", 0);
  ASSERT_TRUE(leader.ok());
  std::vector<broker::Record> batch;
  for (int i = 0; i < 50; ++i) {
    batch.push_back(make_record("k" + std::to_string(i), 64,
                                static_cast<std::uint8_t>(i)));
  }
  auto produced = cluster.produce(leader.value(), "events", 0,
                                  std::move(batch), AckPolicy::kAll);
  ASSERT_TRUE(produced.ok()) << produced.status().to_string();
  ASSERT_TRUE(
      wait_until([&] { return cluster.replicas_converged("events", 0); }));

  auto meta = cluster.metadata("events", 0);
  ASSERT_TRUE(meta.ok());
  broker::FetchSpec spec;
  spec.offset = 0;
  spec.max_records = 100;
  std::vector<std::vector<broker::ConsumedRecord>> per_replica;
  for (BrokerId r : meta.value().replicas) {
    auto fetched = cluster.broker(r)->fetch("events", 0, spec);
    ASSERT_TRUE(fetched.ok()) << fetched.status().to_string();
    per_replica.push_back(std::move(fetched).value());
  }
  for (std::size_t r = 1; r < per_replica.size(); ++r) {
    ASSERT_EQ(per_replica[r].size(), per_replica[0].size());
    for (std::size_t i = 0; i < per_replica[0].size(); ++i) {
      EXPECT_EQ(per_replica[r][i].offset, per_replica[0][i].offset);
      EXPECT_EQ(per_replica[r][i].record.key, per_replica[0][i].record.key);
      EXPECT_EQ(per_replica[r][i].record.value.to_bytes(),
                per_replica[0][i].record.value.to_bytes());
    }
  }
  // Everything quorum-replicated => fully readable.
  auto hw = cluster.high_watermark("events", 0);
  ASSERT_TRUE(hw.ok());
  EXPECT_EQ(hw.value(), 50u);
}

TEST(ClusterTest, QuorumAcksTolerateOneIsolatedFollowerButNotTwo) {
  BrokerCluster cluster(fast_options());
  ASSERT_TRUE(cluster.create_topic("events").ok());
  auto meta = cluster.metadata("events", 0);
  ASSERT_TRUE(meta.ok());
  const BrokerId leader = meta.value().leader;
  std::vector<BrokerId> followers;
  for (BrokerId r : meta.value().replicas) {
    if (r != leader) followers.push_back(r);
  }
  ASSERT_EQ(followers.size(), 2u);

  ASSERT_TRUE(cluster.set_broker_isolated(followers[0], true).ok());
  auto produced = cluster.produce(leader, "events", 0, {make_record("a")},
                                  AckPolicy::kQuorum);
  EXPECT_TRUE(produced.ok()) << produced.status().to_string();

  ASSERT_TRUE(cluster.set_broker_isolated(followers[1], true).ok());
  produced = cluster.produce(leader, "events", 0, {make_record("b")},
                             AckPolicy::kQuorum);
  ASSERT_FALSE(produced.ok());
  EXPECT_EQ(produced.status().code(), StatusCode::kTimeout);
  EXPECT_TRUE(produced.status().is_transient());

  // acks=leader still succeeds with the whole quorum gone.
  produced = cluster.produce(leader, "events", 0, {make_record("c")},
                             AckPolicy::kLeader);
  EXPECT_TRUE(produced.ok()) << produced.status().to_string();
}

TEST(ClusterTest, HighWatermarkHidesUnreplicatedRecords) {
  BrokerCluster cluster(fast_options());
  ASSERT_TRUE(cluster.create_topic("events").ok());
  auto meta = cluster.metadata("events", 0);
  ASSERT_TRUE(meta.ok());
  const BrokerId leader = meta.value().leader;
  for (BrokerId r : meta.value().replicas) {
    if (r != leader) ASSERT_TRUE(cluster.set_broker_isolated(r, true).ok());
  }
  auto produced = cluster.produce(leader, "events", 0, {make_record("a")},
                                  AckPolicy::kLeader);
  ASSERT_TRUE(produced.ok());
  // On the leader but on no follower: invisible to consumers.
  auto hw = cluster.high_watermark("events", 0);
  ASSERT_TRUE(hw.ok());
  EXPECT_EQ(hw.value(), 0u);
  broker::FetchSpec spec;
  spec.offset = 0;
  auto fetched = cluster.fetch(leader, "events", 0, spec);
  ASSERT_TRUE(fetched.ok());
  EXPECT_TRUE(fetched.value().empty());
  // Replication drains once a follower reconnects; the record surfaces.
  for (BrokerId r : meta.value().replicas) {
    if (r != leader) {
      ASSERT_TRUE(cluster.set_broker_isolated(r, false).ok());
      break;
    }
  }
  ASSERT_TRUE(wait_until([&] {
    auto watermark = cluster.high_watermark("events", 0);
    return watermark.ok() && watermark.value() == 1u;
  }));
}

TEST(ClusterTest, StaleEpochCommitIsFenced) {
  BrokerCluster cluster(fast_options());
  const broker::TopicPartition tp{"events", 0};
  ASSERT_TRUE(cluster.create_topic("events").ok());
  const std::uint64_t epoch = cluster.offsets_epoch();
  ASSERT_GT(epoch, 0u);
  EXPECT_TRUE(cluster.commit_offset("g", tp, 10, epoch).ok());
  auto stale = cluster.commit_offset("g", tp, 5, epoch - 1);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kNotLeader);
  // The fenced commit did not land.
  auto committed = cluster.committed_offset("g", tp);
  ASSERT_TRUE(committed.has_value());
  EXPECT_EQ(*committed, 10u);
}

TEST(ClusterClientTest, ProducerRetriesAcrossLeaderKill) {
  auto cluster = std::make_shared<BrokerCluster>(fast_options());
  ASSERT_TRUE(cluster->create_topic("events").ok());
  ClusterProducer producer(cluster);
  ASSERT_TRUE(producer.send("events", 0, make_record("before")).ok());

  auto leader = cluster->leader("events", 0);
  ASSERT_TRUE(leader.ok());
  ASSERT_TRUE(cluster->kill_broker(leader.value()).ok());

  // The send lands after the failover via NOT_LEADER/UNAVAILABLE retries
  // with capped backoff — no manual metadata handling.
  auto sent = producer.send("events", 0, make_record("after"));
  ASSERT_TRUE(sent.ok()) << sent.status().to_string();
  EXPECT_GE(cluster->failover_count(), 1u);
  EXPECT_GE(producer.stats().retries, 1u);
  auto new_leader = cluster->leader("events", 0);
  ASSERT_TRUE(new_leader.ok());
  EXPECT_NE(new_leader.value(), leader.value());
}

TEST(ClusterClientTest, ConsumerGroupEndToEnd) {
  auto cluster = std::make_shared<BrokerCluster>(fast_options());
  ClusterTopicConfig two;
  two.partitions = 2;
  ASSERT_TRUE(cluster->create_topic("events", two).ok());
  ClusterProducer producer(cluster);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(producer
                    .send("events", static_cast<std::uint32_t>(i % 2),
                          make_record("k" + std::to_string(i)))
                    .ok());
  }
  ClusterConsumer consumer(cluster, "readers");
  ASSERT_TRUE(consumer.subscribe({"events"}).ok());
  std::size_t consumed = 0;
  ASSERT_TRUE(wait_until([&] {
    auto polled = consumer.poll(5ms);
    if (polled.ok()) consumed += polled.value().size();
    return consumed >= 40;
  }));
  EXPECT_EQ(consumed, 40u);
  ASSERT_TRUE(consumer.commit().ok());
  // Commits are replicated: every member's __offsets replica converges.
  ASSERT_TRUE(
      wait_until([&] { return cluster->replicas_converged(kOffsetsTopic, 0); }));
  const broker::TopicPartition p0{"events", 0};
  const broker::TopicPartition p1{"events", 1};
  auto c0 = cluster->committed_offset("readers", p0);
  auto c1 = cluster->committed_offset("readers", p1);
  ASSERT_TRUE(c0.has_value());
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(*c0 + *c1, 40u);
  EXPECT_TRUE(consumer.close().ok());
}

TEST(ClusterClientTest, ThrottledProduceIsRetriedTransparently) {
  // Quota buckets refill in emulated time (wall x scale): speed up the
  // wait-out-the-hint half. Declared first so the scale is restored only
  // after the cluster (and its background threads) shut down.
  ScopedTimeScale scale(10.0);
  auto options = fast_options();
  options.admission.default_quota.bytes_per_sec = 20'000.0;
  options.admission.default_quota.burst_seconds = 1.0;
  auto cluster = std::make_shared<BrokerCluster>(options);
  ClusterTopicConfig one;
  one.partitions = 1;
  ASSERT_TRUE(cluster->create_topic("metrics", one).ok());

  RetryConfig retry;
  retry.max_attempts = 16;
  ClusterProducer producer(cluster, retry);

  // The first batch is larger than the whole burst depth: admitted
  // against the full bucket, leaving the client's quota in debt...
  std::vector<broker::Record> big;
  for (int i = 0; i < 250; ++i) {
    big.push_back(make_record("k" + std::to_string(i)));
  }
  ASSERT_TRUE(producer.send_batch("metrics", 0, std::move(big)).ok());

  // ...so the next send is throttled at the leader. The throttle is
  // transient: the producer backs off by at least the broker's
  // retry-after hint and succeeds — the caller never sees an error.
  ASSERT_TRUE(producer.send("metrics", 0, make_record("tail")).ok());
  const auto stats = producer.stats();
  EXPECT_EQ(stats.send_errors, 0u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_GE(stats.throttle_waits, 1u);
  EXPECT_EQ(stats.records_sent, 251u);

  // Quotas gate clients only; replication is exempt, so the throttled
  // records still replicate to a full quorum.
  ASSERT_TRUE(wait_until([&] {
    return cluster->replicas_converged("metrics", 0);
  }));
}

TEST(ClusterTest, ReplicatedRecordsCountEveryFollowerAppend) {
  auto cluster = std::make_shared<BrokerCluster>(fast_options());
  ClusterTopicConfig two;
  two.partitions = 2;
  ASSERT_TRUE(cluster->create_topic("counted", two).ok());
  auto& registry = tel::MetricsRegistry::global();
  tel::Counter& produced = registry.counter("cluster.records_produced");
  tel::Counter& replicated = registry.counter("cluster.replicated_records");
  const std::uint64_t produced0 = produced.value();
  const std::uint64_t replicated0 = replicated.value();

  ClusterProducer producer(cluster, {}, AckPolicy::kQuorum);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(producer
                    .send("counted", static_cast<std::uint32_t>(i % 2),
                          make_record("k" + std::to_string(i)))
                    .ok());
  }
  std::vector<broker::Record> batch;
  for (int i = 0; i < 20; ++i) batch.push_back(make_record("b"));
  ASSERT_TRUE(producer.send_batch("counted", 1, std::move(batch)).ok());
  ASSERT_TRUE(wait_until([&] {
    return cluster->replicas_converged("counted", 0) &&
           cluster->replicas_converged("counted", 1);
  }));

  // RF=3 with caught-up followers: each record is appended on two
  // followers, whichever path (sync push or catch-up pump) carried it.
  EXPECT_EQ(produced.value() - produced0, 50u);
  EXPECT_EQ(replicated.value() - replicated0, 100u);
}

/// A subscribed consumer whose positions are resolved (one empty poll).
std::unique_ptr<ClusterConsumer> ready_consumer(
    const std::shared_ptr<BrokerCluster>& cluster, const std::string& topic) {
  ClusterConsumerConfig config;
  config.auto_commit = false;
  auto consumer = std::make_unique<ClusterConsumer>(cluster, "waiters", config);
  EXPECT_TRUE(consumer->subscribe({topic}).ok());
  EXPECT_TRUE(consumer->poll(1ms).ok());
  return consumer;
}

TEST(ClusterClientTest, EmptyPollWakesOnProduce) {
  auto cluster = std::make_shared<BrokerCluster>(fast_options());
  ASSERT_TRUE(cluster->create_topic("wake").ok());
  auto consumer = ready_consumer(cluster, "wake");

  std::atomic<std::uint64_t> sent_ns{0};
  std::thread producer([&] {
    ClusterProducer p(cluster);
    Clock::sleep_exact(30ms);  // let the poll reach its wait
    sent_ns = Clock::now_ns();
    EXPECT_TRUE(p.send("wake", 0, make_record("x")).ok());
  });
  Stopwatch sw;
  auto polled = consumer->poll(1s);
  const std::uint64_t returned_ns = Clock::now_ns();
  producer.join();
  ASSERT_TRUE(polled.ok()) << polled.status().to_string();
  ASSERT_EQ(polled.value().size(), 1u);
  // Returned on the produce, not on the 1 s budget.
  EXPECT_LT(sw.elapsed_ms(), 500.0);
  EXPECT_LT(static_cast<double>(returned_ns - sent_ns.load()) / 1e6, 100.0);
}

TEST(ClusterClientTest, PositionPastHighWatermarkResetsWithoutWaiting) {
  auto cluster = std::make_shared<BrokerCluster>(fast_options());
  ASSERT_TRUE(cluster->create_topic("reset").ok());
  ClusterProducer producer(cluster);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(producer.send("reset", 0, make_record("k")).ok());
  }
  auto consumer = ready_consumer(cluster, "reset");
  consumer->seek({"reset", 0}, 1000);
  // The fetch fails OUT_OF_RANGE and the position resets to the log
  // start. No new data will arrive, so the poll must re-sweep at once
  // rather than wait for progress.
  Stopwatch sw;
  auto polled = consumer->poll(1s);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled.value().size(), 5u);
  EXPECT_LT(sw.elapsed_ms(), 500.0);
}

TEST(ClusterClientTest, ProducePollRaceLosesNoWakeup) {
  auto cluster = std::make_shared<BrokerCluster>(fast_options());
  // Many partitions make each sweep long, so a produce often lands on a
  // partition the sweep has already passed.
  ClusterTopicConfig wide;
  wide.partitions = 16;
  ASSERT_TRUE(cluster->create_topic("race", wide).ok());
  auto consumer = ready_consumer(cluster, "race");
  ClusterProducer producer(cluster);
  Rng rng(14);
  for (int round = 0; round < 1000; ++round) {
    // The produce lands at a random point of the poll: before, during or
    // after its sweep. A notify between the sweep and the wait must not
    // be lost, or this poll sits out its whole budget.
    const auto delay = std::chrono::microseconds(rng.next_u64() % 100);
    const auto partition = static_cast<std::uint32_t>(rng.next_u64() % 16);
    std::atomic<bool> go{false};
    std::thread t([&] {
      while (!go.load()) {
      }
      Clock::sleep_exact(delay);
      EXPECT_TRUE(producer.send("race", partition, make_record("r")).ok());
    });
    go = true;
    Stopwatch sw;
    std::size_t got = 0;
    while (got == 0 && sw.elapsed_ms() < 5000.0) {
      auto polled = consumer->poll(2s);
      ASSERT_TRUE(polled.ok());
      got = polled.value().size();
    }
    t.join();
    ASSERT_EQ(got, 1u) << "round " << round;
    ASSERT_LT(sw.elapsed_ms(), 1000.0) << "round " << round
                                       << " waited out its budget";
  }
}

TEST(ClusterClientTest, LeaderKillDuringWaitStillDelivers) {
  auto cluster = std::make_shared<BrokerCluster>(fast_options());
  ASSERT_TRUE(cluster->create_topic("failover").ok());
  auto consumer = ready_consumer(cluster, "failover");
  auto leader = cluster->leader("failover", 0);
  ASSERT_TRUE(leader.ok());

  std::thread chaos([&] {
    Clock::sleep_exact(20ms);  // the poll is waiting by now
    EXPECT_TRUE(cluster->kill_broker(leader.value()).ok());
    // Retries ride out the election (session timeout 6 ms).
    ClusterProducer p(cluster);
    EXPECT_TRUE(p.send("failover", 0, make_record("after")).ok());
  });
  Stopwatch sw;
  std::vector<broker::ConsumedRecord> got;
  while (got.empty() && sw.elapsed_ms() < 2000.0) {
    auto polled = consumer->poll(2s);
    ASSERT_TRUE(polled.ok());
    got = std::move(polled).value();
  }
  chaos.join();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].record.key, "after");
  EXPECT_LT(sw.elapsed_ms(), 2000.0);
  auto second = cluster->leader("failover", 0);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value(), leader.value());

  // A committed record whose leader dies before it is read: the poll
  // finds the leader unreachable and waits; the election alone (no new
  // produce) must wake it.
  {
    ClusterProducer p(cluster);
    ASSERT_TRUE(p.send("failover", 0, make_record("stranded")).ok());
  }
  ASSERT_TRUE(cluster->kill_broker(second.value()).ok());
  Stopwatch again;
  auto polled = consumer->poll(2s);
  ASSERT_TRUE(polled.ok());
  ASSERT_EQ(polled.value().size(), 1u);
  EXPECT_EQ(polled.value()[0].record.key, "stranded");
  EXPECT_LT(again.elapsed_ms(), 1000.0);
}

}  // namespace
}  // namespace pe::cluster
