// Shared machinery of the edge-to-cloud benchmark: the open-loop rate
// ladder, latency histograms that live in memory shared with forked
// children, the rung classifier, span tracing with self-time and the
// cross-process join on record seq, seeded payloads, and run hygiene.
//
// Everything here is the benchmark's own code; it measures the library
// only from outside, through its public functions and public stats.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace pebench {

struct TracerLocal;

/// CLOCK_MONOTONIC in ns. System-wide, so stamps taken in forked children
/// compare directly with the driver's.
std::uint64_t mono_ns();
void sleep_until_ns(std::uint64_t deadline_ns);

/// Process CPU time (user + sys, every thread) in microseconds.
std::uint64_t cpu_time_us();

// --- seeded inputs ----------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& state);

/// Sentinel seq of the one warm-up record each set-up sends; consumers
/// verify and skip it.
inline constexpr std::uint64_t kWarmupSeq = ~std::uint64_t{0};

/// Fills `size` (>= 12) bytes: u64 seq (LE), filler derived from
/// (seed, seq), and a trailing u32 checksum of everything before it. The
/// same (seed, seq, size) always gives the same bytes.
void fill_record(std::uint8_t* out, std::size_t size, std::uint64_t seed,
                 std::uint64_t seq);
/// Verifies the checksum and returns the seq through `seq`.
bool check_record(const std::uint8_t* data, std::size_t size,
                  std::uint64_t* seq);

// --- statistics ---------------------------------------------------------------

/// Nearest-rank percentile (q in [0,1]) of `values`; 0 for an empty input.
double percentile(std::vector<double> values, double q);

/// Log-linear histogram with atomic buckets: 64 sub-buckets per power of
/// two (relative error below 1.6%, bucket midpoints below 0.8%). Holds no
/// pointers, so it may live in a MAP_SHARED mapping written by several
/// processes.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64 * 58 + 128;

  void add(std::uint64_t ns);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Value (ns) at quantile q, counting `missing` extra samples as larger
  /// than any recorded one (records that never finished). Returns +inf
  /// when the rank falls among the missing.
  double quantile_ns(double q, std::uint64_t missing = 0) const;

  /// Adds every sample of `other` to this histogram.
  void add_all(const LatencyHistogram& other);

  static std::size_t bucket_of(std::uint64_t ns);
  static double bucket_mid(std::size_t bucket);

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets];
  std::atomic<std::uint64_t> count_;
};

// --- the open-loop ladder -------------------------------------------------------

inline constexpr std::size_t kMaxRungs = 40;
inline constexpr std::size_t kMaxProcs = 3;
/// The reference rung is cut into windows of at least kWindowNs (longer
/// when it would need more than kMaxWindows).
inline constexpr std::uint64_t kWindowNs = 500'000'000;
inline constexpr std::size_t kMaxWindows = 96;

/// One constant-rate step of the schedule.
struct Rung {
  double rate = 0.0;     // records per second
  double seconds = 0.0;  // duration
  enum class Kind { kWarm, kReference, kReferenceTraced, kLadder } kind =
      Kind::kLadder;
};

/// Evenly spaced due times, rung after rung. Record `seq` (0-based) is
/// due at t0 + offset_ns(seq).
class Schedule {
 public:
  explicit Schedule(std::vector<Rung> rungs);
  const std::vector<Rung>& rungs() const { return rungs_; }
  std::uint64_t total() const { return first_.back(); }
  std::uint64_t first_seq(std::size_t rung) const { return first_[rung]; }
  std::uint64_t end_seq(std::size_t rung) const { return first_[rung + 1]; }
  std::uint64_t start_ns(std::size_t rung) const { return start_[rung]; }
  std::uint64_t end_ns(std::size_t rung) const { return start_[rung + 1]; }
  std::size_t rung_of(std::uint64_t seq) const;
  /// How many seqs are due within `offset_ns` of t0.
  std::uint64_t due_by(std::uint64_t offset_ns) const;
  std::uint64_t offset_ns(std::uint64_t seq) const;
  /// Index of the first rung of `kind`, or rungs().size().
  std::size_t find(Rung::Kind kind) const;

  /// Whole windows of the (untraced) reference rung; a tail shorter than
  /// a window belongs to none.
  std::size_t windows() const { return windows_; }
  /// Start of window `w` (w <= windows()), ns from t0.
  std::uint64_t window_start_ns(std::size_t w) const {
    return start_[reference_] + w * window_ns_;
  }
  /// The window whose span holds seq's due time, or windows().
  std::size_t window_of(std::uint64_t seq) const;

 private:
  std::vector<Rung> rungs_;
  std::vector<std::uint64_t> first_;  // rungs+1 entries
  std::vector<std::uint64_t> start_;  // rungs+1 entries, ns from t0
  std::size_t reference_ = 0;
  std::uint64_t window_ns_ = kWindowNs;
  std::size_t windows_ = 0;
};

/// What the classifier sees of one finished rung.
struct RungObservation {
  double rate = 0.0;
  double seconds = 0.0;
  double p99_ms = 0.0;  // +inf when more than 1% never finished
  /// (ns since rung start, due - processed) samples inside the rung. A
  /// generator that falls behind its schedule shows here too.
  std::vector<std::pair<std::uint64_t, double>> backlog;
};

struct RungVerdict {
  bool backlog_grew = false;
  bool latency_missed = false;
  double growth = 0.0;
  bool pass() const { return !backlog_grew && !latency_missed; }
};

/// A rung passes when p99 latency stays under `limit_ms` and the backlog
/// does not grow. After the first fifth of the samples (settling), the
/// mean of the last quarter of the rest may exceed the mean of its first
/// quarter by at most max(64, 5% of the rung's records).
RungVerdict classify_rung(const RungObservation& obs, double limit_ms);

/// Where the climb from the reference rung ended. A single failing rung
/// is taken as a transient; two consecutive failures end the climb. The
/// best rung is the highest passing one before that.
struct Climb {
  std::size_t best = ~std::size_t{0};  // none passed
  bool stopped = false;
  std::size_t stop_at = 0;  // first rung not to send, when stopped
};
Climb climb(const Schedule& schedule, const std::vector<bool>& judged,
            const std::vector<RungVerdict>& verdicts);

/// Indices of the `k` windows the hypervisor took the least CPU from
/// (`steal`, ticks per window; negative = not sampled, never chosen),
/// earlier windows first among equals; ascending.
std::vector<std::size_t> quietest_windows(const std::vector<double>& steal,
                                          std::size_t k);

/// Host steal time so far, in clock ticks, summed over CPUs (the "cpu"
/// line of /proc/stat); 0 when unreadable.
std::uint64_t steal_ticks();

// --- state shared with forked children -------------------------------------

struct RungStats {
  LatencyHistogram e2e;  // due -> processing done, first delivery only
  std::atomic<std::uint64_t> generated;
  std::atomic<std::uint64_t> done;
  std::atomic<std::uint64_t> first_send_ns;
  std::atomic<std::uint64_t> last_send_ns;
};

/// Lives in an anonymous MAP_SHARED mapping made before any fork; every
/// field is a lock-free atomic, so driver and children update it directly.
struct Shared {
  std::atomic<std::uint64_t> t0_ns;
  /// The generator sends no record of this rung or later.
  std::atomic<std::uint32_t> stop_rung;
  std::atomic<std::uint64_t> generated;
  std::atomic<std::uint64_t> processed;   // first deliveries verified
  std::atomic<std::uint64_t> refused;     // produce failed after retries
  std::atomic<std::uint64_t> corrupt;     // bad checksum or unknown seq
  std::atomic<std::uint64_t> lost;        // accepted, never delivered
  std::atomic<std::uint64_t> out_of_order;  // first delivery below a later one
  std::atomic<std::uint64_t> duplicates;  // redeliveries (allowed)
  std::atomic<std::uint64_t> child_ready; // bit per child
  std::atomic<std::uint64_t> warmup_acked_ns;
  std::atomic<std::uint64_t> pops;        // edge_wire worker ring pops
  std::atomic<std::uint64_t> empty_pops;
  LatencyHistogram late;  // generator: actual send - due
  RungStats rung[kMaxRungs];
  RungStats window[kMaxWindows];  // of the reference rung
  /// CPU time (us) of each process at each rung boundary.
  std::atomic<std::uint64_t> cpu_us[kMaxProcs][kMaxRungs + 1];
  /// The same, and steal_ticks() + 1 (so 0 = not sampled), at each
  /// window boundary.
  std::atomic<std::uint64_t> window_cpu_us[kMaxProcs][kMaxWindows + 1];
  std::atomic<std::uint64_t> window_steal[kMaxWindows + 1];
};

/// Maps a zeroed Shared block visible to children forked afterwards.
Shared* map_shared();
void unmap_shared(Shared* shared);

/// Records this process's CPU time into shared->cpu_us[proc][i] at every
/// rung boundary i of `schedule` (relative to shared->t0_ns), and into
/// window_cpu_us at every window boundary, on its own thread, until
/// stop(). Process 0 also records window_steal.
class CpuSampler {
 public:
  CpuSampler(Shared* shared, const Schedule& schedule, std::size_t proc);
  ~CpuSampler();
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;
  void stop();

 private:
  void loop();

  Shared* shared_;
  const Schedule& schedule_;
  const std::size_t proc_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Paces one generator thread along the schedule: returns the next seq to
/// send once it is due (sleeping until then), or total() when the
/// schedule ends or the ladder was stopped. Records lateness and per-rung
/// send counts into `shared`.
class Pacer {
 public:
  Pacer(Shared* shared, const Schedule& schedule)
      : shared_(shared), schedule_(schedule) {}
  std::uint64_t next();
  /// Like next(), for up to `max` consecutive seqs of one rung: sleeps
  /// until the last of them is due and returns the first; `*count` gets
  /// how many.
  std::uint64_t next_batch(std::uint64_t max, std::uint64_t* count);
  /// Due time (absolute ns) of seq.
  std::uint64_t due_ns(std::uint64_t seq) const {
    return t0_ + schedule_.offset_ns(seq);
  }
  void start(std::uint64_t t0) { t0_ = t0; }
  /// Marks `seq` sent at `now` (rung counters, generated). Lateness is
  /// recorded by next()/next_batch() against the record they waited for.
  void sent(std::uint64_t seq, std::uint64_t now);

 private:
  Shared* shared_;
  const Schedule& schedule_;
  std::uint64_t t0_ = 0;
  std::uint64_t seq_ = 0;
};

/// Raises `a` to at least `v`; returns the previous value.
inline std::uint64_t atomic_max(std::atomic<std::uint64_t>& a,
                                std::uint64_t v) {
  std::uint64_t cur = a.load();
  while (cur < v && !a.compare_exchange_weak(cur, v)) {
  }
  return cur;
}

/// Which seqs were delivered at least once (thread-safe).
class Delivered {
 public:
  explicit Delivered(std::uint64_t total) : words_((total + 63) / 64) {}
  /// True on the first delivery of `seq`.
  bool first(std::uint64_t seq) {
    const std::uint64_t bit = std::uint64_t{1} << (seq % 64);
    return (words_[seq / 64].fetch_or(bit) & bit) == 0;
  }
  bool has(std::uint64_t seq) const {
    return (words_[seq / 64].load() & (std::uint64_t{1} << (seq % 64))) != 0;
  }
  /// Seqs below `end` never delivered (only those in `sent`, if given).
  std::uint64_t missing(std::uint64_t end,
                        const Delivered* sent = nullptr) const;

 private:
  std::vector<std::atomic<std::uint64_t>> words_;
};

/// Records a verified first delivery of `seq` finishing at `now`.
void record_done(Shared* shared, const Schedule& schedule, std::uint64_t t0,
                 std::uint64_t seq, std::uint64_t now);

/// Samples backlog, judges every ladder rung once it is over, and stops
/// the generator at the first failing rung.
class LadderMonitor {
 public:
  LadderMonitor(Shared* shared, const Schedule& schedule, double limit_ms);
  ~LadderMonitor();
  LadderMonitor(const LadderMonitor&) = delete;
  LadderMonitor& operator=(const LadderMonitor&) = delete;
  /// Processes whose resident set counts towards the peak (default: this
  /// one). Sampled until the reference rungs end.
  void watch(std::vector<int> pids) { pids_ = std::move(pids); }
  void start();
  void stop();

  struct Result {
    std::vector<RungVerdict> verdicts;  // per rung; unjudged rungs pass
    std::vector<bool> judged;
    double peak_backlog = 0.0;
    double peak_rss_kib = 0.0;  // summed over watched processes
  };
  Result result() const;

 private:
  void loop();
  void judge(std::size_t rung);

  Shared* shared_;
  const Schedule& schedule_;
  const double limit_ms_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mutex_;
  std::vector<std::pair<std::uint64_t, double>> samples_;
  Result result_;
  std::vector<int> pids_;
  std::thread thread_;
};

// --- tracing ------------------------------------------------------------------

/// One traced interval. `sid` is unique per process; `parent` is 0 for a
/// root. `id` is the record seq (or the first seq of a batch), or
/// kNoId. `n` is the number of records the call handled.
struct Span {
  std::uint64_t sid = 0;
  std::uint64_t parent = 0;
  std::uint32_t name = 0;
  std::uint32_t proc = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t n = 0;
};
inline constexpr std::uint64_t kNoId = ~std::uint64_t{0};

/// Span names, fixed so the binary files of all processes agree.
enum SpanName : std::uint32_t {
  kSpanLoadgen = 0,    // bench: one generator send iteration (root)
  kSpanConsume,        // bench: one consumer loop iteration (root)
  kSpanVerify,         // bench: checksum/dense check of a delivery
  kSpanClusterEnqueue,
  kSpanClusterPoll,
  kSpanClusterCommit,
  kSpanClusterDeliver,  // instant: record returned by a cluster poll
  kSpanBrokerPoll,
  kSpanRingPush,
  kSpanRingPop,
  kSpanProduceRpc,
  kSpanCommitRpc,
  kSpanDataGenerate,
  kSpanMlProcess,
  kSpanCount
};
const char* span_name(std::uint32_t name);
/// Layer a span's self time is charged to ("bench" for the harness).
const char* span_layer(std::uint32_t name);

/// In-memory span recorder of one process. Thread-safe; each thread keeps
/// a stack of open spans so nested spans get their parent automatically.
/// Records only while the clock is inside the trace window.
class Tracer {
 public:
  static Tracer& get();
  void configure(std::uint32_t proc, std::uint64_t window_start_ns,
                 std::uint64_t window_end_ns, std::size_t max_spans);
  bool active(std::uint64_t now) const {
    return now >= window_start_ && now < window_end_;
  }
  /// Opens a span; returns its sid, or 0 when not recording.
  std::uint64_t open(std::uint32_t name, std::uint64_t id, std::uint64_t now);
  void close(std::uint64_t sid, std::uint32_t name, std::uint64_t id,
             std::uint64_t n, std::uint64_t start, std::uint64_t end);
  /// Records a finished leaf span under the thread's open span.
  void record(std::uint32_t name, std::uint64_t id, std::uint64_t n,
              std::uint64_t start, std::uint64_t end);
  std::vector<Span> take();

 private:
  friend struct TracerLocal;
  void reserve(TracerLocal& l) const;

  std::uint32_t proc_ = 0;
  std::uint64_t window_start_ = ~std::uint64_t{0};
  std::uint64_t window_end_ = 0;
  std::size_t max_spans_ = 0;
  std::atomic<std::uint64_t> next_sid_{1};
  std::atomic<std::size_t> recorded_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;  // flushed thread-local buffers
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(std::uint32_t name, std::uint64_t id = kNoId);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_n(std::uint64_t n) { n_ = n; }

 private:
  std::uint32_t name_;
  std::uint64_t id_;
  std::uint64_t n_ = 0;
  std::uint64_t start_ = 0;
  std::uint64_t sid_ = 0;
};

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span). Indexed like `spans`.
std::vector<double> self_times_ns(const std::vector<Span>& spans);

/// For every id present in both: b.start - a.end, where `a` spans have
/// name `from` and `b` spans name `to` (first occurrence of each id). The
/// spans may come from different processes: CLOCK_MONOTONIC is shared.
std::vector<double> join_on_id(const std::vector<Span>& spans,
                               std::uint32_t from, std::uint32_t to);

bool write_spans(const std::string& path, const std::vector<Span>& spans);
std::vector<Span> read_spans(const std::string& path);
bool write_spans_csv(const std::string& path, const std::vector<Span>& spans);

// --- run hygiene ----------------------------------------------------------------

/// Creates `<root>/run-<pid>-<seed>` fresh (removing a stale one).
std::string make_run_dir(const std::string& root, std::uint64_t seed);
void remove_tree(const std::string& path);
/// Names of /dev/shm objects starting with `prefix`.
std::vector<std::string> shm_objects(const std::string& prefix);

/// A forked child. The child runs `body` and _exits with its return
/// value; the parent gets the pid. Reaping kills the child after
/// `timeout_ms`.
struct Child {
  int pid = -1;
  int to_child = -1;  // write end of a pipe the child reads its go from
};
Child fork_child(int (*body)(int read_fd, void* arg), void* arg);
/// Waits for the child; SIGKILLs it after timeout_ms. Returns its exit
/// code (128+signal when killed).
int reap_child(Child& child, int timeout_ms);

}  // namespace pebench
