// BatchAccumulator coverage: size/linger/close/manual triggers, sink
// error accounting, per-partition separation, per-partition flush order,
// and the linger==0 flush-per-add mode.
#include "broker/batch_accumulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace pe::broker {
namespace {

using namespace std::chrono_literals;

Record make_record(const std::string& key, std::size_t value_size = 16) {
  Record r;
  r.key = key;
  r.value = Bytes(value_size, 0x11);
  return r;
}

/// Thread-safe sink capturing every flushed batch (the flusher thread and
/// the add() caller may both flush).
struct SinkCapture {
  struct Batch {
    std::string topic;
    std::uint32_t partition;
    std::vector<Record> records;
  };

  BatchAccumulator::FlushFn fn() {
    return [this](const std::string& topic, std::uint32_t partition,
                  std::vector<Record> records) {
      std::lock_guard<std::mutex> lock(mu);
      batches.push_back({topic, partition, std::move(records)});
      return result;
    };
  }

  std::size_t batch_count() {
    std::lock_guard<std::mutex> lock(mu);
    return batches.size();
  }

  std::size_t record_count() {
    std::lock_guard<std::mutex> lock(mu);
    std::size_t n = 0;
    for (const auto& b : batches) n += b.records.size();
    return n;
  }

  std::mutex mu;
  std::vector<Batch> batches;
  Status result = Status::Ok();
};

/// Wall-bounded wait for an asynchronous (flusher-thread) effect.
template <typename Pred>
bool wait_until(Pred pred, std::chrono::milliseconds wall_budget = 2000ms) {
  Stopwatch sw;
  while (sw.elapsed_ms() < static_cast<double>(wall_budget.count())) {
    if (pred()) return true;
    Clock::sleep_exact(1ms);
  }
  return pred();
}

TEST(BatchAccumulatorTest, SizeTriggerFlushesSynchronously) {
  SinkCapture capture;
  BatchConfig config;
  config.linger = std::chrono::seconds(60);  // never fires here
  config.batch_max_bytes = 3 * make_record("k").wire_size();
  BatchAccumulator acc(config, capture.fn());

  ASSERT_TRUE(acc.add("t", 0, make_record("k")).ok());
  ASSERT_TRUE(acc.add("t", 0, make_record("k")).ok());
  EXPECT_EQ(capture.batch_count(), 0u);  // below the size threshold
  ASSERT_TRUE(acc.add("t", 0, make_record("k")).ok());  // trips the size

  EXPECT_EQ(capture.batch_count(), 1u);
  EXPECT_EQ(capture.record_count(), 3u);
  const auto stats = acc.stats();
  EXPECT_EQ(stats.records_enqueued, 3u);
  EXPECT_EQ(stats.records_flushed, 3u);
  EXPECT_EQ(stats.batches_flushed, 1u);
  EXPECT_EQ(stats.flushes_on_size, 1u);
  EXPECT_EQ(stats.flushes_on_time, 0u);
}

TEST(BatchAccumulatorTest, LingerTriggerFlushesFromBackgroundThread) {
  // 200ms emulated linger at 100x = 2ms wall: the flusher fires without
  // any further add() calls.
  ScopedTimeScale scale(100.0);
  SinkCapture capture;
  BatchConfig config;
  config.linger = std::chrono::milliseconds(200);
  config.batch_max_bytes = 1ull << 20;
  BatchAccumulator acc(config, capture.fn());

  ASSERT_TRUE(acc.add("t", 0, make_record("k")).ok());
  ASSERT_TRUE(wait_until([&] { return capture.batch_count() >= 1; }));
  EXPECT_EQ(capture.record_count(), 1u);
  const auto stats = acc.stats();
  EXPECT_EQ(stats.flushes_on_time, 1u);
  EXPECT_EQ(stats.flushes_on_size, 0u);
}

TEST(BatchAccumulatorTest, CloseFlushesPendingAndRejectsFurtherAdds) {
  SinkCapture capture;
  BatchConfig config;
  config.linger = std::chrono::seconds(60);
  config.batch_max_bytes = 1ull << 20;
  BatchAccumulator acc(config, capture.fn());

  ASSERT_TRUE(acc.add("t", 0, make_record("a")).ok());
  ASSERT_TRUE(acc.add("t", 0, make_record("b")).ok());
  ASSERT_TRUE(acc.close().ok());

  EXPECT_EQ(capture.batch_count(), 1u);
  EXPECT_EQ(capture.record_count(), 2u);
  EXPECT_EQ(acc.stats().flushes_on_close, 1u);

  EXPECT_EQ(acc.add("t", 0, make_record("c")).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(acc.close().ok());  // idempotent
}

TEST(BatchAccumulatorTest, ManualFlushDrainsPending) {
  SinkCapture capture;
  BatchConfig config;
  config.linger = std::chrono::seconds(60);
  BatchAccumulator acc(config, capture.fn());

  ASSERT_TRUE(acc.add("t", 0, make_record("a")).ok());
  ASSERT_TRUE(acc.flush().ok());
  EXPECT_EQ(capture.batch_count(), 1u);
  EXPECT_EQ(acc.stats().flushes_manual, 1u);
  // Nothing pending: flushing again is a no-op, not an error.
  ASSERT_TRUE(acc.flush().ok());
  EXPECT_EQ(capture.batch_count(), 1u);
}

TEST(BatchAccumulatorTest, SinkErrorsAreCountedAndSurfaced) {
  SinkCapture capture;
  capture.result = Status::Unavailable("broker down");
  BatchConfig config;
  config.linger = std::chrono::seconds(60);
  config.batch_max_bytes = 2 * make_record("k").wire_size();
  BatchAccumulator acc(config, capture.fn());

  ASSERT_TRUE(acc.add("t", 0, make_record("k")).ok());
  // The size-triggered flush returns the sink's error to the caller.
  EXPECT_EQ(acc.add("t", 0, make_record("k")).code(),
            StatusCode::kUnavailable);

  const auto stats = acc.stats();
  EXPECT_EQ(stats.flush_errors, 1u);
  EXPECT_EQ(stats.records_dropped, 2u);  // the sink owns any retries
  EXPECT_EQ(acc.last_error().code(), StatusCode::kUnavailable);
}

TEST(BatchAccumulatorTest, PartitionsBatchIndependently) {
  SinkCapture capture;
  BatchConfig config;
  config.linger = std::chrono::seconds(60);
  BatchAccumulator acc(config, capture.fn());

  ASSERT_TRUE(acc.add("t", 0, make_record("a")).ok());
  ASSERT_TRUE(acc.add("t", 0, make_record("b")).ok());
  ASSERT_TRUE(acc.add("t", 1, make_record("c")).ok());
  ASSERT_TRUE(acc.add("u", 0, make_record("d")).ok());
  ASSERT_TRUE(acc.flush().ok());

  ASSERT_EQ(capture.batch_count(), 3u);
  std::size_t t0 = 0, t1 = 0, u0 = 0;
  {
    std::lock_guard<std::mutex> lock(capture.mu);
    for (const auto& b : capture.batches) {
      if (b.topic == "t" && b.partition == 0) t0 = b.records.size();
      if (b.topic == "t" && b.partition == 1) t1 = b.records.size();
      if (b.topic == "u" && b.partition == 0) u0 = b.records.size();
    }
  }
  EXPECT_EQ(t0, 2u);
  EXPECT_EQ(t1, 1u);
  EXPECT_EQ(u0, 1u);
}

TEST(BatchAccumulatorTest, PartitionFlushesOneBatchAtATimeInCutOrder) {
  // The sink blocks on partition 0's first batch. Meanwhile a manual
  // flush cuts partition 0's second batch: it must wait for the first,
  // while partition 1 still flushes.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool blocked = false;
  std::map<std::uint32_t, int> in_flight;
  std::map<std::uint32_t, int> max_in_flight;
  std::vector<std::string> p0_order;  // first key of each partition-0 batch
  auto sink = [&](const std::string&, std::uint32_t partition,
                  std::vector<Record> records) {
    std::unique_lock<std::mutex> lock(mu);
    const int now = ++in_flight[partition];
    max_in_flight[partition] = std::max(max_in_flight[partition], now);
    if (partition == 0) p0_order.push_back(records.front().key);
    if (partition == 0 && records.front().key == "a0") {
      blocked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    --in_flight[partition];
    return Status::Ok();
  };
  BatchConfig config;
  config.linger = std::chrono::seconds(60);  // no linger flush in the test
  config.batch_max_bytes = 2 * make_record("a0").wire_size();
  BatchAccumulator acc(config, sink);

  // Two records trip the size trigger: add() runs the sink and blocks.
  std::thread size_flush([&] {
    EXPECT_TRUE(acc.add("t", 0, make_record("a0")).ok());
    EXPECT_TRUE(acc.add("t", 0, make_record("a1")).ok());
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return blocked; }));
  }
  // Another partition is not held up by partition 0's sink call.
  ASSERT_TRUE(acc.add("t", 1, make_record("c0")).ok());
  ASSERT_TRUE(acc.add("t", 1, make_record("c1")).ok());

  ASSERT_TRUE(acc.add("t", 0, make_record("b0")).ok());
  std::atomic<bool> flushed{false};
  std::thread manual_flush([&] {
    EXPECT_TRUE(acc.flush().ok());
    flushed = true;
  });
  // Give an unordered implementation time to run the second batch.
  Clock::sleep_exact(50ms);
  EXPECT_FALSE(flushed.load());
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(p0_order, std::vector<std::string>{"a0"});
    release = true;
  }
  cv.notify_all();
  size_flush.join();
  manual_flush.join();

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(p0_order, (std::vector<std::string>{"a0", "b0"}));
  EXPECT_EQ(max_in_flight[0], 1);
  EXPECT_EQ(max_in_flight[1], 1);
  EXPECT_EQ(acc.stats().batches_flushed, 3u);
}

TEST(BatchAccumulatorTest, ZeroLingerFlushesEveryAdd) {
  SinkCapture capture;
  BatchConfig config;
  config.linger = Duration::zero();
  BatchAccumulator acc(config, capture.fn());

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(acc.add("t", 0, make_record("k")).ok());
  }
  EXPECT_EQ(capture.batch_count(), 3u);
  EXPECT_EQ(acc.stats().batches_flushed, 3u);
  EXPECT_EQ(acc.stats().records_flushed, 3u);
}

}  // namespace
}  // namespace pe::broker
