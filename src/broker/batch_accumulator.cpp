#include "broker/batch_accumulator.h"

#include <algorithm>

namespace pe::broker {
namespace {

/// Wall-clock duration for an emulated linger (same contract as
/// Clock::sleep_scaled: emulated / time_scale).
Duration wall_linger(Duration linger) {
  const double scale = Clock::time_scale();
  if (scale <= 0.0) return linger;
  return std::chrono::duration_cast<Duration>(linger / scale);
}

// The flusher re-checks deadlines at least this often even when nothing
// new is armed, so a time-scale change mid-linger cannot stall a batch
// for more than one slice.
constexpr auto kMaxFlusherSlice = std::chrono::milliseconds(50);

}  // namespace

BatchAccumulator::BatchAccumulator(BatchConfig config, FlushFn flush)
    : config_(config), flush_(std::move(flush)) {
  if (config_.linger > Duration::zero()) {
    flusher_ = std::thread([this] { flusher_loop(); });
  }
}

BatchAccumulator::~BatchAccumulator() {
  // Destructor flush: errors already landed in stats_/last_error_.
  (void)close();
}

Status BatchAccumulator::add(const std::string& topic, std::uint32_t partition,
                             Record record) {
  Key key{topic, partition};
  Due due;
  {
    MutexLock lock(mutex_);
    if (closed_) {
      return Status::FailedPrecondition("batch accumulator is closed");
    }
    Lane& lane = lanes_[key];
    if (lane.records.empty()) {
      lane.deadline = Clock::now() + wall_linger(config_.linger);
      ++arm_epoch_;
      wake_.notify_all();
    }
    lane.bytes += record.wire_size();
    lane.records.push_back(std::move(record));
    ++stats_.records_enqueued;
    if (config_.linger <= Duration::zero() ||
        lane.bytes >= config_.batch_max_bytes) {
      due = cut_locked(key, lane);
    }
  }
  if (due.records.empty()) return Status::Ok();
  return flush_batch(std::move(due), Trigger::kSize);
}

Status BatchAccumulator::flush() {
  std::vector<Due> all;
  {
    MutexLock lock(mutex_);
    all = take_all_locked();
  }
  Status first = Status::Ok();
  for (auto& d : all) {
    auto s = flush_batch(std::move(d), Trigger::kManual);
    if (first.ok() && !s.ok()) first = s;
  }
  return first;
}

Status BatchAccumulator::close() {
  std::vector<Due> all;
  bool join = false;
  {
    MutexLock lock(mutex_);
    if (!closed_) {
      closed_ = true;
      stop_ = true;
      join = true;
      wake_.notify_all();
    }
    all = take_all_locked();
  }
  if (join && flusher_.joinable()) flusher_.join();
  Status first = Status::Ok();
  for (auto& d : all) {
    auto s = flush_batch(std::move(d), Trigger::kClose);
    if (first.ok() && !s.ok()) first = s;
  }
  return first;
}

BatchAccumulatorStats BatchAccumulator::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

Status BatchAccumulator::last_error() const {
  MutexLock lock(mutex_);
  return last_error_;
}

void BatchAccumulator::flusher_loop() {
  while (true) {
    std::vector<Due> due;
    {
      UniqueLock lock(mutex_);
      if (stop_) return;
      const auto now = Clock::now();
      auto next = TimePoint::max();
      for (const auto& [key, lane] : lanes_) {
        if (!lane.records.empty()) next = std::min(next, lane.deadline);
      }
      if (next > now) {
        Duration wait = next == TimePoint::max()
                            ? Duration(kMaxFlusherSlice)
                            : std::min<Duration>(next - now, kMaxFlusherSlice);
        const std::uint64_t epoch = arm_epoch_;
        wake_.wait_for(lock, wait,
                       [&] { return stop_ || arm_epoch_ != epoch; });
        continue;  // re-plan: stop, new arm, or deadline reached
      }
      for (auto& [key, lane] : lanes_) {
        if (!lane.records.empty() && lane.deadline <= now) {
          due.push_back(cut_locked(key, lane));
        }
      }
    }
    for (auto& d : due) {
      // Linger-triggered flush has no caller to return to: the outcome is
      // recorded in stats_/last_error_ by flush_batch.
      (void)flush_batch(std::move(d), Trigger::kTime);
    }
  }
}

BatchAccumulator::Due BatchAccumulator::cut_locked(const Key& key,
                                                  Lane& lane) {
  Due due{key, &lane, lane.next_ticket++, std::move(lane.records)};
  lane.records.clear();
  lane.bytes = 0;
  return due;
}

Status BatchAccumulator::flush_batch(Due due, Trigger trigger) {
  Lane& lane = *due.lane;
  {
    // A size flush from add() and a linger or manual flush of the same
    // partition may both hold a cut batch: the sink takes them one at a
    // time, in cut order, or they could land out of order.
    UniqueLock lock(mutex_);
    turn_.wait(lock, [&] { return lane.serving == due.ticket; });
  }
  const auto count = static_cast<std::uint64_t>(due.records.size());
  Status s = flush_(due.key.first, due.key.second, std::move(due.records));
  {
    MutexLock lock(mutex_);
    ++lane.serving;
    ++stats_.batches_flushed;
    switch (trigger) {
      case Trigger::kSize: ++stats_.flushes_on_size; break;
      case Trigger::kTime: ++stats_.flushes_on_time; break;
      case Trigger::kClose: ++stats_.flushes_on_close; break;
      case Trigger::kManual: ++stats_.flushes_manual; break;
    }
    if (s.ok()) {
      stats_.records_flushed += count;
    } else {
      ++stats_.flush_errors;
      stats_.records_dropped += count;
      last_error_ = s;
    }
  }
  turn_.notify_all();
  return s;
}

std::vector<BatchAccumulator::Due> BatchAccumulator::take_all_locked() {
  std::vector<Due> all;
  for (auto& [key, lane] : lanes_) {
    if (!lane.records.empty()) all.push_back(cut_locked(key, lane));
  }
  return all;
}

}  // namespace pe::broker
