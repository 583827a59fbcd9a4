// Cluster-aware clients: metadata caching, NOT_LEADER refresh, and capped
// exponential backoff over transient failures.
//
// Both clients keep a per-partition leader cache and talk to the cluster
// through it. When a call fails NOT_LEADER or UNAVAILABLE (leader died,
// election pending, broker isolated), they refresh the metadata and retry
// with exponential backoff, capped and bounded by RetryConfig — the same
// transient-vs-permanent vocabulary as the task executor's RetryPolicy.
// A produce retry after an ack TIMEOUT can duplicate records: the cluster
// is at-least-once, never silently lossy.
//
// Clients are single-threaded like their broker counterparts; give each
// thread its own instance.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "broker/batch_accumulator.h"
#include "broker/record.h"
#include "cluster/broker_cluster.h"
#include "cluster/cluster_types.h"
#include "taskexec/task.h"

namespace pe::cluster {

/// Retry envelope for cluster calls. `policy` reuses the executor's
/// vocabulary: kTransientOnly retries NOT_LEADER / UNAVAILABLE / TIMEOUT
/// and fails fast on everything else; kAllFailures retries any error.
struct RetryConfig {
  std::size_t max_attempts = 8;
  Duration initial_backoff = std::chrono::milliseconds(1);
  Duration max_backoff = std::chrono::milliseconds(64);
  exec::RetryPolicy policy = exec::RetryPolicy::kTransientOnly;
};

/// True when `status` should be retried under `config`.
bool retryable(const RetryConfig& config, const Status& status);

struct ClusterProducerStats {
  std::uint64_t records_sent = 0;
  std::uint64_t send_errors = 0;
  std::uint64_t retries = 0;
  std::uint64_t metadata_refreshes = 0;
  /// Retries caused specifically by a broker throttle (quota or
  /// hot-window cap) — the backpressure made visible to the client.
  std::uint64_t throttle_waits = 0;
};

class ClusterProducer {
 public:
  explicit ClusterProducer(std::shared_ptr<BrokerCluster> cluster,
                           RetryConfig retry = {},
                           std::optional<AckPolicy> acks = std::nullopt);
  ~ClusterProducer();

  /// Appends one record; returns its offset once acked.
  Result<std::uint64_t> send(const std::string& topic, std::uint32_t partition,
                             broker::Record record);
  /// Key-hash partition selection (stable across processes).
  Result<std::uint64_t> send(const std::string& topic, broker::Record record);
  /// Appends a batch; returns the first offset once acked. A throttled
  /// attempt (transient ResourceExhausted) backs off by at least the
  /// broker's retry-after hint before retrying.
  Result<std::uint64_t> send_batch(const std::string& topic,
                                   std::uint32_t partition,
                                   std::vector<broker::Record> records);

  // --- batching path (mirrors broker::Producer) ---
  /// Installs a batching accumulator feeding send_batch. Once enabled the
  /// producer is safe to share between the enqueueing thread and the
  /// accumulator's flusher.
  void enable_batching(broker::BatchConfig config);
  Status enqueue(const std::string& topic, std::uint32_t partition,
                 broker::Record record);
  Status flush();
  Status close();

  /// Client id presented to the leader broker's admission control.
  const std::string& id() const { return id_; }
  ClusterProducerStats stats() const;
  broker::BatchAccumulatorStats batch_stats() const;
  Status last_batch_error() const;

 private:
  Result<BrokerId> leader_for(const std::string& topic,
                              std::uint32_t partition);

  std::shared_ptr<BrokerCluster> cluster_;
  RetryConfig retry_;
  AckPolicy acks_;
  const std::string id_;
  // Guards the leader cache and stats: with batching enabled, send_batch
  // runs on both the caller's thread and the accumulator flusher. Held
  // only around cache/stats access, never across a cluster call.
  mutable Mutex mutex_{"cluster.producer"};
  std::map<broker::TopicPartition, BrokerId> leaders_ PE_GUARDED_BY(mutex_);
  ClusterProducerStats stats_ PE_GUARDED_BY(mutex_);
  std::unique_ptr<broker::BatchAccumulator> accumulator_;
};

struct ClusterConsumerConfig {
  enum class OffsetReset { kEarliest, kLatest };
  /// Where to start on a partition with no committed offset (or when the
  /// position fell outside the retained log).
  OffsetReset offset_reset = OffsetReset::kEarliest;
  std::size_t max_poll_records = 500;
  /// Commit delivered positions at the start of the next poll (and on
  /// close). Commits are replicated + quorum-acked; see
  /// BrokerCluster::commit_offset.
  bool auto_commit = true;
};

struct ClusterConsumerStats {
  std::uint64_t records_consumed = 0;
  std::uint64_t commits = 0;
  std::uint64_t rebalances = 0;
  std::uint64_t retries = 0;
};

class ClusterConsumer {
 public:
  ClusterConsumer(std::shared_ptr<BrokerCluster> cluster, std::string group,
                  ClusterConsumerConfig config = {}, RetryConfig retry = {});
  ~ClusterConsumer();

  const std::string& id() const { return id_; }
  const std::string& group() const { return group_; }

  /// Joins the group (with retry across an offsets-leader failover) and
  /// receives an assignment.
  Status subscribe(std::vector<std::string> topics);

  /// Delivers up to max_poll_records across the assignment, sweeping
  /// partitions round-robin. When a sweep finds nothing it waits on the
  /// cluster's progress signal (a produce, a pump pass, an election)
  /// rather than sleeping, until something arrives or `max_wait`
  /// (emulated) elapses. Handles rebalances, leader changes, and offset
  /// resets internally; a poll during a failover returns empty rather
  /// than failing.
  Result<std::vector<broker::ConsumedRecord>> poll(
      Duration max_wait = std::chrono::milliseconds(10));

  /// Replicated commit of every delivered position (next offset to read
  /// per partition). OK means the commit survives offsets-leader loss.
  Status commit();

  std::optional<std::uint64_t> position(const broker::TopicPartition& tp) const;
  void seek(const broker::TopicPartition& tp, std::uint64_t offset);
  std::vector<broker::TopicPartition> assignment() const {
    return assignment_;
  }

  const ClusterConsumerStats& stats() const { return stats_; }

  /// Commits (when auto_commit) and leaves the group.
  Status close();
  /// Abandons the group without leaving — the coordinator evicts the
  /// member via its session timeout (crash simulation).
  void crash();

 private:
  Status rejoin();
  void maybe_rebalance();
  /// Resolves the initial position of a partition: committed offset if
  /// any, else the reset point.
  std::optional<std::uint64_t> initial_position(
      const broker::TopicPartition& tp);
  /// One fetch pass over the assignment. True when it reset a position
  /// that fell outside the committed log.
  bool sweep(std::vector<broker::ConsumedRecord>& out);

  std::shared_ptr<BrokerCluster> cluster_;
  const std::string group_;
  const std::string id_;
  const ClusterConsumerConfig config_;
  const RetryConfig retry_;
  bool subscribed_ = false;
  std::vector<std::string> topics_;
  std::uint64_t generation_ = 0;
  std::vector<broker::TopicPartition> assignment_;
  std::map<broker::TopicPartition, std::uint64_t> positions_;
  /// Positions already durably committed (skip no-op commits).
  std::map<broker::TopicPartition, std::uint64_t> committed_;
  std::size_t sweep_start_ = 0;
  ClusterConsumerStats stats_;
};

}  // namespace pe::cluster
