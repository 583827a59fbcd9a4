#include "harness.h"

#include <dirent.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <new>
#include <unordered_map>

namespace pebench {

std::uint64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void sleep_until_ns(std::uint64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1'000'000'000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

std::uint64_t cpu_time_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000ull +
           static_cast<std::uint64_t>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

// --- seeded inputs ----------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

std::uint32_t fnv1a(const std::uint8_t* data, std::size_t size) {
  std::uint32_t h = 2166136261u;
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ data[i]) * 16777619u;
  }
  return h;
}

}  // namespace

void fill_record(std::uint8_t* out, std::size_t size, std::uint64_t seed,
                 std::uint64_t seq) {
  std::memcpy(out, &seq, 8);
  std::uint64_t state = seed * 0xD1B54A32D192ED03ull ^ seq;
  for (std::size_t i = 8; i < size - 4; i += 8) {
    const std::uint64_t word = splitmix64(state);
    std::memcpy(out + i, &word, std::min<std::size_t>(8, size - 4 - i));
  }
  const std::uint32_t sum = fnv1a(out, size - 4);
  std::memcpy(out + size - 4, &sum, 4);
}

bool check_record(const std::uint8_t* data, std::size_t size,
                  std::uint64_t* seq) {
  if (data == nullptr || size < 12) return false;
  std::uint32_t sum = 0;
  std::memcpy(&sum, data + size - 4, 4);
  if (sum != fnv1a(data, size - 4)) return false;
  std::memcpy(seq, data, 8);
  return true;
}

// --- statistics ---------------------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

std::size_t LatencyHistogram::bucket_of(std::uint64_t ns) {
  if (ns < 128) return static_cast<std::size_t>(ns);
  const int msb = 63 - __builtin_clzll(ns);
  const int shift = msb - 6;
  return static_cast<std::size_t>(64 * shift) +
         static_cast<std::size_t>(ns >> shift);
}

double LatencyHistogram::bucket_mid(std::size_t bucket) {
  if (bucket < 128) return static_cast<double>(bucket);
  const std::size_t shift = bucket / 64 - 1;
  const std::size_t mantissa = bucket - 64 * shift;
  const double lower = std::ldexp(static_cast<double>(mantissa),
                                  static_cast<int>(shift));
  const double width = std::ldexp(1.0, static_cast<int>(shift));
  return lower + (width - 1.0) / 2.0;
}

void LatencyHistogram::add(std::uint64_t ns) {
  buckets_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

void LatencyHistogram::add_all(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
}

double LatencyHistogram::quantile_ns(double q, std::uint64_t missing) const {
  std::uint64_t recorded = 0;
  for (const auto& b : buckets_) recorded += b.load(std::memory_order_relaxed);
  const std::uint64_t total = recorded + missing;
  if (total == 0) return 0.0;
  auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  rank = std::max<std::uint64_t>(rank, 1);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t in = buckets_[i].load(std::memory_order_relaxed);
    if (cum + in >= rank) {
      if (i < 128) return static_cast<double>(i);
      // Spread the bucket's samples evenly over its width.
      const int shift = static_cast<int>(i / 64 - 1);
      const double lower =
          std::ldexp(static_cast<double>(i - 64 * (i / 64 - 1)), shift);
      const double width = std::ldexp(1.0, shift);
      return lower + width * (static_cast<double>(rank - cum) - 0.5) /
                         static_cast<double>(in);
    }
    cum += in;
  }
  return std::numeric_limits<double>::infinity();
}

// --- the open-loop ladder -------------------------------------------------------

Schedule::Schedule(std::vector<Rung> rungs) : rungs_(std::move(rungs)) {
  first_.push_back(0);
  start_.push_back(0);
  for (const auto& r : rungs_) {
    first_.push_back(first_.back() +
                     static_cast<std::uint64_t>(std::llround(r.rate * r.seconds)));
    start_.push_back(start_.back() +
                     static_cast<std::uint64_t>(std::llround(r.seconds * 1e9)));
  }
  reference_ = find(Rung::Kind::kReference);
  if (reference_ == rungs_.size()) return;
  const std::uint64_t span = start_[reference_ + 1] - start_[reference_];
  window_ns_ = std::max(kWindowNs, (span + kMaxWindows - 1) / kMaxWindows);
  windows_ = static_cast<std::size_t>(span / window_ns_);
}

std::size_t Schedule::window_of(std::uint64_t seq) const {
  if (windows_ == 0 || rung_of(seq) != reference_) return windows_;
  const std::uint64_t into = offset_ns(seq) - start_[reference_];
  return std::min<std::size_t>(static_cast<std::size_t>(into / window_ns_),
                               windows_);
}

std::size_t Schedule::rung_of(std::uint64_t seq) const {
  auto it = std::upper_bound(first_.begin(), first_.end(), seq);
  const auto idx = static_cast<std::size_t>(it - first_.begin());
  return std::min(idx == 0 ? 0 : idx - 1, rungs_.size() - 1);
}

std::uint64_t Schedule::offset_ns(std::uint64_t seq) const {
  const std::size_t r = rung_of(seq);
  const double into = static_cast<double>(seq - first_[r]) / rungs_[r].rate;
  return start_[r] + static_cast<std::uint64_t>(into * 1e9);
}

std::uint64_t Schedule::due_by(std::uint64_t offset_ns) const {
  auto it = std::upper_bound(start_.begin(), start_.end(), offset_ns);
  const auto r = static_cast<std::size_t>(it - start_.begin());
  if (r == 0) return 0;
  if (r > rungs_.size()) return total();
  const double into = static_cast<double>(offset_ns - start_[r - 1]) / 1e9;
  const auto n = static_cast<std::uint64_t>(into * rungs_[r - 1].rate) + 1;
  return std::min(first_[r - 1] + n, first_[r]);
}

std::size_t Schedule::find(Rung::Kind kind) const {
  for (std::size_t i = 0; i < rungs_.size(); ++i) {
    if (rungs_[i].kind == kind) return i;
  }
  return rungs_.size();
}

RungVerdict classify_rung(const RungObservation& obs, double limit_ms) {
  RungVerdict v;
  v.latency_missed = !(obs.p99_ms <= limit_ms);
  // The first fifth of a rung is the system settling to the new rate.
  const std::size_t settle = obs.backlog.size() / 5;
  const std::size_t quarter = (obs.backlog.size() - settle) / 4;
  if (quarter >= 2) {
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < quarter; ++i) {
      first += obs.backlog[settle + i].second;
      last += obs.backlog[obs.backlog.size() - quarter + i].second;
    }
    v.growth = (last - first) / static_cast<double>(quarter);
    const double allowed = std::max(64.0, 0.05 * obs.rate * obs.seconds);
    v.backlog_grew = v.growth > allowed;
  }
  return v;
}

Climb climb(const Schedule& schedule, const std::vector<bool>& judged,
            const std::vector<RungVerdict>& verdicts) {
  Climb c;
  const auto& rungs = schedule.rungs();
  int failures = 0;
  for (std::size_t r = schedule.find(Rung::Kind::kReference); r < rungs.size();
       ++r) {
    if (rungs[r].kind == Rung::Kind::kReferenceTraced) continue;
    if (!judged[r]) break;
    if (verdicts[r].pass()) {
      c.best = r;
      failures = 0;
      continue;
    }
    if (++failures == 2) {
      c.stopped = true;
      c.stop_at = r + 1;
      break;
    }
  }
  return c;
}

std::vector<std::size_t> quietest_windows(const std::vector<double>& steal,
                                          std::size_t k) {
  std::vector<std::size_t> order;
  for (std::size_t w = 0; w < steal.size(); ++w) {
    if (steal[w] >= 0) order.push_back(w);
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  order.resize(std::min(k, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

std::uint64_t steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  // cpu  user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

namespace {

double rss_kib(int pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/statm";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

}  // namespace

// --- shared state -------------------------------------------------------------

Shared* map_shared() {
  void* mem = mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return nullptr;
  // Anonymous mappings are zero-filled, which is every atomic's zero.
  auto* shared = static_cast<Shared*>(mem);
  shared->stop_rung.store(static_cast<std::uint32_t>(kMaxRungs));
  return shared;
}

void unmap_shared(Shared* shared) {
  if (shared != nullptr) munmap(shared, sizeof(Shared));
}

CpuSampler::CpuSampler(Shared* shared, const Schedule& schedule,
                       std::size_t proc)
    : shared_(shared), schedule_(schedule), proc_(proc) {
  thread_ = std::thread([this] { loop(); });
}

CpuSampler::~CpuSampler() { stop(); }

void CpuSampler::stop() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void CpuSampler::loop() {
  const std::uint64_t t0 = shared_->t0_ns.load();
  // Rung boundaries i and window boundaries kMaxRungs + 1 + w, by time.
  std::vector<std::pair<std::uint64_t, std::size_t>> boundaries;
  for (std::size_t i = 0; i <= schedule_.rungs().size() && i <= kMaxRungs; ++i) {
    boundaries.emplace_back(schedule_.start_ns(i), i);
  }
  for (std::size_t w = 0; w <= schedule_.windows(); ++w) {
    boundaries.emplace_back(schedule_.window_start_ns(w), kMaxRungs + 1 + w);
  }
  std::stable_sort(boundaries.begin(), boundaries.end());
  for (const auto& [offset, slot] : boundaries) {
    const std::uint64_t at = t0 + offset;
    std::unique_lock lock(mutex_);
    while (!stop_) {
      const std::uint64_t now = mono_ns();
      if (now >= at) break;
      cv_.wait_for(lock, std::chrono::nanoseconds(at - now));
    }
    if (stop_) return;
    lock.unlock();
    if (slot <= kMaxRungs) {
      shared_->cpu_us[proc_][slot].store(cpu_time_us());
      continue;
    }
    const std::size_t w = slot - kMaxRungs - 1;
    if (proc_ == 0) shared_->window_steal[w].store(steal_ticks() + 1);
    shared_->window_cpu_us[proc_][w].store(cpu_time_us());
  }
}

std::uint64_t Pacer::next() {
  std::uint64_t count = 0;
  return next_batch(1, &count);
}

std::uint64_t Pacer::next_batch(std::uint64_t max, std::uint64_t* count) {
  const std::uint64_t total = schedule_.total();
  *count = 0;
  if (seq_ >= total || schedule_.rung_of(seq_) >= shared_->stop_rung.load()) {
    seq_ = total;
    return total;
  }
  const std::uint64_t first = seq_;
  const std::uint64_t end =
      std::min(first + max, schedule_.end_seq(schedule_.rung_of(first)));
  const std::uint64_t due = due_ns(end - 1);
  std::uint64_t now = mono_ns();
  if (now < due) {
    sleep_until_ns(due);
    now = mono_ns();
  }
  shared_->late.add(now > due ? now - due : 0);
  seq_ = end;
  *count = end - first;
  return first;
}

void Pacer::sent(std::uint64_t seq, std::uint64_t now) {
  auto& rung = shared_->rung[schedule_.rung_of(seq)];
  std::uint64_t zero = 0;
  rung.first_send_ns.compare_exchange_strong(zero, now);
  rung.last_send_ns.store(now);
  rung.generated.fetch_add(1, std::memory_order_relaxed);
  shared_->generated.fetch_add(1, std::memory_order_relaxed);
  const std::size_t w = schedule_.window_of(seq);
  if (w < schedule_.windows()) {
    shared_->window[w].generated.fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint64_t Delivered::missing(std::uint64_t end,
                                 const Delivered* sent) const {
  std::uint64_t n = 0;
  for (std::uint64_t seq = 0; seq < end; ++seq) {
    if (!has(seq) && (sent == nullptr || sent->has(seq))) ++n;
  }
  return n;
}

void record_done(Shared* shared, const Schedule& schedule, std::uint64_t t0,
                 std::uint64_t seq, std::uint64_t now) {
  const std::size_t r = schedule.rung_of(seq);
  auto& rung = shared->rung[r];
  const std::uint64_t due = t0 + schedule.offset_ns(seq);
  rung.e2e.add(now > due ? now - due : 0);
  rung.done.fetch_add(1, std::memory_order_relaxed);
  const std::size_t w = schedule.window_of(seq);
  if (w < schedule.windows()) {
    shared->window[w].e2e.add(now > due ? now - due : 0);
    shared->window[w].done.fetch_add(1, std::memory_order_relaxed);
  }
  shared->processed.fetch_add(1, std::memory_order_relaxed);
}

LadderMonitor::LadderMonitor(Shared* shared, const Schedule& schedule,
                             double limit_ms)
    : shared_(shared), schedule_(schedule), limit_ms_(limit_ms) {
  result_.verdicts.resize(schedule.rungs().size());
  result_.judged.resize(schedule.rungs().size(), false);
}

LadderMonitor::~LadderMonitor() { stop(); }

void LadderMonitor::start() { thread_ = std::thread([this] { loop(); }); }

void LadderMonitor::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

LadderMonitor::Result LadderMonitor::result() const {
  std::lock_guard lock(mutex_);
  return result_;
}

void LadderMonitor::loop() {
  const std::uint64_t t0 = shared_->t0_ns.load();
  const std::size_t rungs = schedule_.rungs().size();
  const auto grace_ns =
      static_cast<std::uint64_t>((limit_ms_ + 50.0) * 1e6);
  std::size_t next_judge = 0;
  if (pids_.empty()) pids_.push_back(static_cast<int>(getpid()));
  std::uint64_t reference_end = 0;
  for (std::size_t r = 0; r < rungs; ++r) {
    if (schedule_.rungs()[r].kind == Rung::Kind::kReference ||
        schedule_.rungs()[r].kind == Rung::Kind::kReferenceTraced) {
      reference_end = t0 + schedule_.end_ns(r);
    }
  }
  std::uint64_t next_rss = 0;
  while (!stop_.load()) {
    const std::uint64_t now = mono_ns();
    if (now < reference_end && now >= next_rss) {
      double kib = 0.0;
      for (int pid : pids_) kib += rss_kib(pid);
      std::lock_guard lock(mutex_);
      result_.peak_rss_kib = std::max(result_.peak_rss_kib, kib);
      next_rss = now + 20'000'000;
    }
    // Open-loop backlog: records due so far (up to where the ladder
    // stopped) that are not processed yet.
    const std::uint32_t stop = shared_->stop_rung.load();
    std::uint64_t due = now > t0 ? schedule_.due_by(now - t0) : 0;
    if (stop < rungs) due = std::min(due, schedule_.first_seq(stop));
    const double backlog = static_cast<double>(due) -
                           static_cast<double>(shared_->processed.load()) -
                           static_cast<double>(shared_->refused.load());
    {
      std::lock_guard lock(mutex_);
      samples_.emplace_back(now, backlog);
      result_.peak_backlog = std::max(result_.peak_backlog, backlog);
    }
    while (next_judge < rungs &&
           now >= t0 + schedule_.end_ns(next_judge) + grace_ns) {
      judge(next_judge++);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Stopped after the drain: every record sent has finished or never
  // will, so the rungs still waiting out their grace can be judged now.
  const std::uint64_t now = mono_ns();
  while (next_judge < rungs && now >= t0 + schedule_.end_ns(next_judge)) {
    judge(next_judge++);
  }
}

void LadderMonitor::judge(std::size_t r) {
  const Rung& rung = schedule_.rungs()[r];
  if (rung.kind == Rung::Kind::kWarm ||
      rung.kind == Rung::Kind::kReferenceTraced) {
    return;
  }
  if (r >= shared_->stop_rung.load()) return;
  const std::uint64_t t0 = shared_->t0_ns.load();
  const auto& stats = shared_->rung[r];
  const std::uint64_t generated = stats.generated.load();
  const std::uint64_t done = stats.done.load();
  RungObservation obs;
  obs.rate = rung.rate;
  obs.seconds = rung.seconds;
  obs.p99_ms =
      stats.e2e.quantile_ns(0.99, generated > done ? generated - done : 0) /
      1e6;
  const std::uint64_t begin = t0 + schedule_.start_ns(r);
  const std::uint64_t end = t0 + schedule_.end_ns(r);
  {
    std::lock_guard lock(mutex_);
    for (const auto& [at, backlog] : samples_) {
      if (at >= begin && at < end) obs.backlog.emplace_back(at - begin, backlog);
    }
  }
  const RungVerdict verdict = classify_rung(obs, limit_ms_);
  Climb c;
  {
    std::lock_guard lock(mutex_);
    result_.verdicts[r] = verdict;
    result_.judged[r] = true;
    c = climb(schedule_, result_.judged, result_.verdicts);
  }
  if (c.stopped) {
    // No later ladder rung is sent. Rungs before the ladder (a traced
    // reference half) always run.
    std::size_t first_ladder = c.stop_at;
    while (first_ladder < schedule_.rungs().size() &&
           schedule_.rungs()[first_ladder].kind != Rung::Kind::kLadder) {
      ++first_ladder;
    }
    std::uint32_t expected = shared_->stop_rung.load();
    const auto stop_at = static_cast<std::uint32_t>(first_ladder);
    while (stop_at < expected &&
           !shared_->stop_rung.compare_exchange_weak(expected, stop_at)) {
    }
  }
}

// --- tracing ------------------------------------------------------------------

const char* span_name(std::uint32_t name) {
  static const char* const kNames[kSpanCount] = {
      "bench.loadgen",      "bench.consume",    "bench.verify",
      "cluster.enqueue",    "cluster.poll",     "cluster.commit",
      "cluster.deliver",    "broker.poll",      "transport.ring_push",
      "transport.ring_pop", "transport.produce_rpc",
      "transport.commit_rpc", "data.generate",  "ml.process"};
  return name < kSpanCount ? kNames[name] : "?";
}

const char* span_layer(std::uint32_t name) {
  switch (name) {
    case kSpanClusterEnqueue:
    case kSpanClusterPoll:
    case kSpanClusterCommit:
    case kSpanClusterDeliver: return "cluster";
    case kSpanBrokerPoll: return "broker";
    case kSpanRingPush:
    case kSpanRingPop:
    case kSpanProduceRpc:
    case kSpanCommitRpc: return "transport";
    case kSpanDataGenerate: return "data";
    case kSpanMlProcess: return "ml";
    default: return "bench";
  }
}

struct TracerLocal {
  std::vector<Span> spans;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> stack;  // sid, parent
  ~TracerLocal() { flush(); }
  void flush() {
    if (spans.empty()) return;
    Tracer& t = Tracer::get();
    std::lock_guard lock(t.mutex_);
    t.spans_.insert(t.spans_.end(), spans.begin(), spans.end());
    spans.clear();
  }
};

namespace {
TracerLocal& local() {
  thread_local TracerLocal l;
  return l;
}
}  // namespace

void Tracer::reserve(TracerLocal& l) const {
  // Room for every span this thread may record, taken once: growing by
  // copying would stall the traced thread for milliseconds. Pages are
  // only touched as spans are written.
  if (l.spans.capacity() < max_spans_) l.spans.reserve(max_spans_);
}

Tracer& Tracer::get() {
  static Tracer* tracer = new Tracer();  // leaked: outlives thread_locals
  return *tracer;
}

void Tracer::configure(std::uint32_t proc, std::uint64_t window_start_ns,
                       std::uint64_t window_end_ns, std::size_t max_spans) {
  proc_ = proc;
  window_start_ = window_start_ns;
  window_end_ = window_end_ns;
  max_spans_ = max_spans;
}

std::uint64_t Tracer::open(std::uint32_t, std::uint64_t, std::uint64_t now) {
  if (!active(now) || recorded_.load(std::memory_order_relaxed) >= max_spans_) {
    return 0;
  }
  auto& l = local();
  reserve(l);
  const std::uint64_t sid = next_sid_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t parent = l.stack.empty() ? 0 : l.stack.back().first;
  l.stack.emplace_back(sid, parent);
  return sid;
}

void Tracer::close(std::uint64_t sid, std::uint32_t name, std::uint64_t id,
                   std::uint64_t n, std::uint64_t start, std::uint64_t end) {
  if (sid == 0) return;
  auto& l = local();
  std::uint64_t parent = 0;
  if (!l.stack.empty() && l.stack.back().first == sid) {
    parent = l.stack.back().second;
    l.stack.pop_back();
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
  l.spans.push_back(Span{sid, parent, name, proc_, start, end, id, n});
}

void Tracer::record(std::uint32_t name, std::uint64_t id, std::uint64_t n,
                    std::uint64_t start, std::uint64_t end) {
  if (!active(start) || recorded_.load(std::memory_order_relaxed) >= max_spans_) {
    return;
  }
  auto& l = local();
  reserve(l);
  const std::uint64_t sid = next_sid_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t parent = l.stack.empty() ? 0 : l.stack.back().first;
  recorded_.fetch_add(1, std::memory_order_relaxed);
  l.spans.push_back(Span{sid, parent, name, proc_, start, end, id, n});
}

std::vector<Span> Tracer::take() {
  local().flush();
  std::lock_guard lock(mutex_);
  return std::move(spans_);
}

ScopedSpan::ScopedSpan(std::uint32_t name, std::uint64_t id)
    : name_(name), id_(id) {
  Tracer& t = Tracer::get();
  start_ = mono_ns();
  sid_ = t.open(name, id, start_);
}

ScopedSpan::~ScopedSpan() {
  if (sid_ != 0) Tracer::get().close(sid_, name_, id_, n_, start_, mono_ns());
}

std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  auto key = [](std::uint32_t proc, std::uint64_t sid) {
    return (static_cast<std::uint64_t>(proc) << 56) ^ sid;
  };
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index[key(spans[i].proc, spans[i].sid)] = i;
  }
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const auto& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(key(s.proc, s.parent));
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::uint64_t a = std::max(s.start_ns, p.start_ns);
    const std::uint64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) children[it->second].emplace_back(a, b);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& c = children[i];
    std::sort(c.begin(), c.end());
    std::uint64_t covered = 0, reach = 0;
    for (const auto& [a, b] : c) {
      const std::uint64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    const std::uint64_t dur = spans[i].end_ns - spans[i].start_ns;
    out[i] = static_cast<double>(dur > covered ? dur - covered : 0);
  }
  return out;
}

std::vector<double> join_on_id(const std::vector<Span>& spans,
                               std::uint32_t from, std::uint32_t to) {
  std::unordered_map<std::uint64_t, std::uint64_t> at;
  for (const auto& s : spans) {
    if (s.name == from && s.id != kNoId) {
      at.emplace(s.id, s.end_ns);
    }
  }
  std::vector<double> out;
  std::unordered_map<std::uint64_t, bool> seen;
  for (const auto& s : spans) {
    if (s.name != to || s.id == kNoId) continue;
    auto it = at.find(s.id);
    if (it == at.end() || !seen.emplace(s.id, true).second) continue;
    out.push_back(static_cast<double>(s.start_ns) -
                  static_cast<double>(it->second));
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = spans.empty() || std::fwrite(spans.data(), sizeof(Span),
                                               spans.size(), f) == spans.size();
  return std::fclose(f) == 0 && ok;
}

std::vector<Span> read_spans(const std::string& path) {
  std::vector<Span> out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  Span s;
  while (std::fread(&s, sizeof(Span), 1, f) == 1) out.push_back(s);
  std::fclose(f);
  return out;
}

bool write_spans_csv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "proc,sid,parent,name,start_ns,end_ns,id,n\n");
  for (const auto& s : spans) {
    std::fprintf(f, "%u,%llu,%llu,%s,%llu,%llu,%lld,%llu\n", s.proc,
                 static_cast<unsigned long long>(s.sid),
                 static_cast<unsigned long long>(s.parent), span_name(s.name),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 s.id == kNoId ? -1LL : static_cast<long long>(s.id),
                 static_cast<unsigned long long>(s.n));
  }
  return std::fclose(f) == 0;
}

// --- run hygiene ----------------------------------------------------------------

std::string make_run_dir(const std::string& root, std::uint64_t seed) {
  const std::string path = root + "/run-" + std::to_string(getpid()) + "-" +
                           std::to_string(seed);
  remove_tree(path);
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return ec ? std::string() : path;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::vector<std::string> shm_objects(const std::string& prefix) {
  std::vector<std::string> out;
  DIR* dir = opendir("/dev/shm");
  if (dir == nullptr) return out;
  while (dirent* e = readdir(dir)) {
    if (std::strncmp(e->d_name, prefix.c_str(), prefix.size()) == 0) {
      out.emplace_back(e->d_name);
    }
  }
  closedir(dir);
  return out;
}

Child fork_child(int (*body)(int read_fd, void* arg), void* arg) {
  Child child;
  int fds[2];
  if (pipe(fds) != 0) return child;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    // Never outlive the driver, whatever path it exits by.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    close(fds[1]);
    const int rc = body(fds[0], arg);
    std::fflush(nullptr);
    _exit(rc);
  }
  close(fds[0]);
  if (pid < 0) {
    close(fds[1]);
    return child;
  }
  child.pid = pid;
  child.to_child = fds[1];
  return child;
}

int reap_child(Child& child, int timeout_ms) {
  if (child.to_child >= 0) {
    close(child.to_child);
    child.to_child = -1;
  }
  if (child.pid <= 0) return -1;
  const std::uint64_t deadline =
      mono_ns() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000ull;
  int status = 0;
  pid_t got = 0;
  while ((got = waitpid(child.pid, &status, WNOHANG)) == 0 &&
         mono_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (got == 0) {
    kill(child.pid, SIGKILL);
    got = waitpid(child.pid, &status, 0);
  }
  child.pid = -1;
  if (got < 0) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

}  // namespace pebench
