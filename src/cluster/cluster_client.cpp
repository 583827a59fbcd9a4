#include "cluster/cluster_client.h"

#include <algorithm>
#include <utility>

#include "common/ids.h"
#include "common/logging.h"
#include "cluster/shard_map.h"

namespace pe::cluster {

bool retryable(const RetryConfig& config, const Status& status) {
  if (status.ok()) return false;
  if (config.policy == exec::RetryPolicy::kAllFailures) return true;
  return status.is_transient();
}

namespace {

/// One backoff step: sleep the current delay (emulated), then double it
/// up to the cap.
void backoff_step(const RetryConfig& config, Duration& delay) {
  Clock::sleep_scaled(delay);
  delay = std::min(delay * 2, config.max_backoff);
}

}  // namespace

// --- ClusterProducer -------------------------------------------------------

ClusterProducer::ClusterProducer(std::shared_ptr<BrokerCluster> cluster,
                                 RetryConfig retry,
                                 std::optional<AckPolicy> acks)
    : cluster_(std::move(cluster)),
      retry_(retry),
      acks_(acks.value_or(cluster_->options().default_acks)),
      id_(next_producer_id()) {}

ClusterProducer::~ClusterProducer() {
  if (accumulator_) (void)accumulator_->close();
}

void ClusterProducer::enable_batching(broker::BatchConfig config) {
  accumulator_ = std::make_unique<broker::BatchAccumulator>(
      config, [this](const std::string& topic, std::uint32_t partition,
                     std::vector<broker::Record> records) {
        return send_batch(topic, partition, std::move(records)).status();
      });
}

Status ClusterProducer::enqueue(const std::string& topic,
                                std::uint32_t partition,
                                broker::Record record) {
  if (!accumulator_) {
    return Status::FailedPrecondition("batching not enabled");
  }
  return accumulator_->add(topic, partition, std::move(record));
}

Status ClusterProducer::flush() {
  if (!accumulator_) return Status::Ok();
  return accumulator_->flush();
}

Status ClusterProducer::close() {
  if (!accumulator_) return Status::Ok();
  return accumulator_->close();
}

ClusterProducerStats ClusterProducer::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

broker::BatchAccumulatorStats ClusterProducer::batch_stats() const {
  if (!accumulator_) return {};
  return accumulator_->stats();
}

Status ClusterProducer::last_batch_error() const {
  if (!accumulator_) return Status::Ok();
  return accumulator_->last_error();
}

Result<BrokerId> ClusterProducer::leader_for(const std::string& topic,
                                             std::uint32_t partition) {
  const broker::TopicPartition tp{topic, partition};
  {
    MutexLock lock(mutex_);
    auto it = leaders_.find(tp);
    if (it != leaders_.end()) return it->second;
  }
  auto leader = cluster_->leader(topic, partition);
  if (!leader.ok()) return leader.status();
  MutexLock lock(mutex_);
  ++stats_.metadata_refreshes;
  if (leader.value() == kNoBroker) {
    return Status::Unavailable("partition " + topic + "/" +
                               std::to_string(partition) +
                               " is leaderless (election pending)");
  }
  leaders_[tp] = leader.value();
  return leader.value();
}

Result<std::uint64_t> ClusterProducer::send(const std::string& topic,
                                            std::uint32_t partition,
                                            broker::Record record) {
  std::vector<broker::Record> batch;
  batch.push_back(std::move(record));
  return send_batch(topic, partition, std::move(batch));
}

Result<std::uint64_t> ClusterProducer::send(const std::string& topic,
                                            broker::Record record) {
  const std::uint32_t partitions = cluster_->partition_count(topic);
  if (partitions == 0) {
    return Status::NotFound("unknown topic '" + topic + "'");
  }
  const std::uint32_t partition =
      static_cast<std::uint32_t>(stable_hash(record.key) % partitions);
  return send(topic, partition, std::move(record));
}

Result<std::uint64_t> ClusterProducer::send_batch(
    const std::string& topic, std::uint32_t partition,
    std::vector<broker::Record> records) {
  const std::size_t count = records.size();
  Duration delay = retry_.initial_backoff;
  Status last_error = Status::Ok();
  for (std::size_t attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    if (attempt > 0) {
      {
        MutexLock lock(mutex_);
        ++stats_.retries;
        if (last_error.retry_after() > Duration::zero()) {
          ++stats_.throttle_waits;
        }
      }
      // A throttled attempt (quota / hot-window cap) carries the broker's
      // retry-after hint: honor it as the backoff floor so a herd of
      // producers does not hammer an over-budget broker faster than its
      // bucket refills.
      Clock::sleep_scaled(std::max(delay, last_error.retry_after()));
      delay = std::min(delay * 2, retry_.max_backoff);
    }
    auto leader = leader_for(topic, partition);
    if (!leader.ok()) {
      last_error = leader.status();
      if (!retryable(retry_, last_error)) break;
      continue;
    }
    // Per-attempt copies are cheap: payload views are shared, only keys
    // and coordinates duplicate.
    std::vector<broker::Record> copy = records;
    auto produced = cluster_->produce(leader.value(), topic, partition,
                                      std::move(copy), acks_, id_);
    if (produced.ok()) {
      MutexLock lock(mutex_);
      stats_.records_sent += count;
      return produced.value();
    }
    last_error = produced.status();
    // Leadership may have moved (NOT_LEADER carries the new leader; a
    // dead leader shows as UNAVAILABLE until the election lands): drop
    // the cache entry so the next attempt re-resolves.
    {
      MutexLock lock(mutex_);
      leaders_.erase(broker::TopicPartition{topic, partition});
    }
    if (!retryable(retry_, last_error)) break;
  }
  MutexLock lock(mutex_);
  ++stats_.send_errors;
  return last_error;
}

// --- ClusterConsumer -------------------------------------------------------

ClusterConsumer::ClusterConsumer(std::shared_ptr<BrokerCluster> cluster,
                                 std::string group,
                                 ClusterConsumerConfig config,
                                 RetryConfig retry)
    : cluster_(std::move(cluster)),
      group_(std::move(group)),
      id_(next_consumer_id()),
      config_(config),
      retry_(retry) {}

ClusterConsumer::~ClusterConsumer() {
  if (subscribed_) {
    if (auto s = close(); !s.ok()) {
      PE_LOG_WARN(id_ << ": close failed: " << s.to_string());
    }
  }
}

Status ClusterConsumer::subscribe(std::vector<std::string> topics) {
  topics_ = std::move(topics);
  Status s = rejoin();
  if (s.ok()) subscribed_ = true;
  return s;
}

Status ClusterConsumer::rejoin() {
  Duration delay = retry_.initial_backoff;
  Status last_error = Status::Ok();
  for (std::size_t attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      backoff_step(retry_, delay);
    }
    auto joined = cluster_->join_group(group_, id_, topics_);
    if (joined.ok()) {
      generation_ = joined.value().generation;
      assignment_ = joined.value().partitions;
      ++stats_.rebalances;
      // Keep positions of partitions we still own; drop the rest (their
      // new owner resumes from the committed offset).
      std::map<broker::TopicPartition, std::uint64_t> kept;
      for (const auto& tp : assignment_) {
        if (auto it = positions_.find(tp); it != positions_.end()) {
          kept.emplace(*it);
        }
      }
      positions_ = std::move(kept);
      return Status::Ok();
    }
    last_error = joined.status();
    if (!retryable(retry_, last_error)) break;
  }
  return last_error;
}

void ClusterConsumer::maybe_rebalance() {
  const std::uint64_t current = cluster_->group_generation(group_);
  if (current == generation_) return;
  // Generation moved: either the group rebalanced or the offsets leader
  // failed over and the membership re-formed on the new coordinator.
  auto assigned = cluster_->group_assignment(group_, id_);
  if (assigned.ok()) {
    generation_ = assigned.value().generation;
    assignment_ = assigned.value().partitions;
    ++stats_.rebalances;
    return;
  }
  if (auto s = rejoin(); !s.ok()) {
    PE_LOG_WARN(id_ << ": rejoin failed: " << s.to_string());
  }
}

std::optional<std::uint64_t> ClusterConsumer::initial_position(
    const broker::TopicPartition& tp) {
  if (auto committed = cluster_->committed_offset(group_, tp)) {
    return *committed;
  }
  if (config_.offset_reset == ClusterConsumerConfig::OffsetReset::kEarliest) {
    auto start = cluster_->log_start_offset(tp.topic, tp.partition);
    if (start.ok()) return start.value();
    return std::nullopt;
  }
  auto hw = cluster_->high_watermark(tp.topic, tp.partition);
  if (hw.ok()) return hw.value();
  return std::nullopt;
}

bool ClusterConsumer::sweep(std::vector<broker::ConsumedRecord>& out) {
  bool reset = false;
  if (assignment_.empty()) return reset;
  const std::size_t n = assignment_.size();
  for (std::size_t i = 0; i < n && out.size() < config_.max_poll_records;
       ++i) {
    const broker::TopicPartition& tp =
        assignment_[(sweep_start_ + i) % n];
    auto pos_it = positions_.find(tp);
    if (pos_it == positions_.end()) {
      auto pos = initial_position(tp);
      if (!pos) continue;  // leaderless right now; next poll
      pos_it = positions_.emplace(tp, *pos).first;
    }
    auto leader = cluster_->leader(tp.topic, tp.partition);
    if (!leader.ok() || leader.value() == kNoBroker) continue;
    broker::FetchSpec spec;
    spec.offset = pos_it->second;
    spec.max_records = config_.max_poll_records - out.size();
    auto fetched =
        cluster_->fetch(leader.value(), tp.topic, tp.partition, spec);
    if (!fetched.ok()) {
      if (fetched.status().code() == StatusCode::kOutOfRange) {
        // The position fell outside the committed log (retention moved
        // the start, or an unclean edge shrank the end): reset it.
        positions_.erase(pos_it);
        reset = true;
      }
      continue;  // NOT_LEADER/UNAVAILABLE resolve by the next sweep
    }
    for (auto& record : fetched.value()) {
      pos_it->second = record.offset + 1;
      out.push_back(std::move(record));
    }
  }
  sweep_start_ = (sweep_start_ + 1) % n;
  return reset;
}

Result<std::vector<broker::ConsumedRecord>> ClusterConsumer::poll(
    Duration max_wait) {
  if (!subscribed_) {
    return Status::FailedPrecondition("consumer is not subscribed");
  }
  if (config_.auto_commit) {
    if (auto s = commit(); !s.ok()) {
      PE_LOG_WARN(id_ << ": auto-commit failed: " << s.to_string());
    }
  }
  if (auto s = cluster_->heartbeat(group_, id_);
      !s.ok() && s.code() == StatusCode::kNotFound) {
    // Evicted (or the coordinator moved and dropped soft state).
    if (auto j = rejoin(); !j.ok()) return j;
  }
  maybe_rebalance();

  std::vector<broker::ConsumedRecord> out;
  // The budget is emulated time; the wait below runs on the wall clock.
  const TimePoint deadline =
      Clock::now() +
      std::chrono::duration_cast<Duration>(max_wait / Clock::time_scale());
  bool resweep_allowed = true;
  while (true) {
    // Read before the sweep: a produce that lands mid-sweep bumps the
    // version past `seen`, so the wait below returns at once instead of
    // missing it.
    const std::uint64_t seen = cluster_->progress_version();
    const bool reset = sweep(out);
    if (!out.empty()) break;
    const TimePoint now = Clock::now();
    if (now >= deadline) break;
    // A reset position resolves on the next sweep without any new data;
    // allow one immediate re-sweep so a poll does not idle on it.
    if (reset && resweep_allowed) {
      resweep_allowed = false;
      continue;
    }
    cluster_->wait_for_progress(seen, deadline - now);
  }
  stats_.records_consumed += out.size();
  return out;
}

Status ClusterConsumer::commit() {
  for (const auto& [tp, pos] : positions_) {
    if (auto it = committed_.find(tp);
        it != committed_.end() && it->second == pos) {
      continue;
    }
    Duration delay = retry_.initial_backoff;
    Status last_error = Status::Ok();
    bool committed = false;
    for (std::size_t attempt = 0; attempt < retry_.max_attempts; ++attempt) {
      if (attempt > 0) {
        ++stats_.retries;
        backoff_step(retry_, delay);
      }
      // The epoch is re-read per attempt: after an offsets failover the
      // first try fails NOT_LEADER (stale epoch) and the retry lands on
      // the new leader's epoch.
      const std::uint64_t epoch = cluster_->offsets_epoch();
      auto s = cluster_->commit_offset(group_, tp, pos, epoch);
      if (s.ok()) {
        committed = true;
        committed_[tp] = pos;
        ++stats_.commits;
        break;
      }
      last_error = s;
      if (!retryable(retry_, last_error)) break;
    }
    if (!committed) return last_error;
  }
  return Status::Ok();
}

std::optional<std::uint64_t> ClusterConsumer::position(
    const broker::TopicPartition& tp) const {
  auto it = positions_.find(tp);
  if (it == positions_.end()) return std::nullopt;
  return it->second;
}

void ClusterConsumer::seek(const broker::TopicPartition& tp,
                           std::uint64_t offset) {
  positions_[tp] = offset;
}

Status ClusterConsumer::close() {
  if (!subscribed_) return Status::Ok();
  subscribed_ = false;
  Status commit_status =
      config_.auto_commit ? commit() : Status::Ok();
  auto left = cluster_->leave_group(group_, id_);
  return commit_status.ok() ? left : commit_status;
}

void ClusterConsumer::crash() {
  subscribed_ = false;
  positions_.clear();
  committed_.clear();
  assignment_.clear();
}

}  // namespace pe::cluster
