// edge_wire: 64 B records cross two real process boundaries.
//
//   edge child --ControlClient::produce, 64-record 'B' frames--> ControlPlane
//   (driver) in front of an in-memory Broker; a broker::Consumer in the
//   driver pushes every record into a ShmRing; a worker child pops
//   zero-copy, verifies seq and checksum, and commits through
//   ControlClient::commit every kCommitEvery records.
//
// Why: the per-record, per-frame cost path. transport and the in-memory
// broker do most of the work; storage, cluster and ml do none.
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "broker/consumer.h"
#include "network/fabric.h"
#include "telemetry/metrics.h"
#include "transport/control_client.h"
#include "transport/control_plane.h"
#include "transport/shm_ring.h"
#include "workload.h"

namespace pebench {
namespace {

constexpr std::size_t kRecordBytes = 64;
constexpr std::uint64_t kBatchRecords = 64;
constexpr std::uint64_t kCommitEvery = 256;
constexpr std::uint64_t kRingBytes = 8ull << 20;
constexpr const char* kTopic = "wire";
constexpr const char* kChannel = "wire-0";
constexpr const char* kGroup = "wire-workers";
constexpr std::size_t kEdgeProc = 1;
constexpr std::size_t kWorkerProc = 2;

// Capacity here is one synchronous produce RPC per 64 records, so it
// follows the host's wake-up latency. The ladder stops at 2.5x the
// reference rate, which a 4-core x86 VM sustains with room to spare:
// sustained_rps shows a drop below it and reports the top rung above it.
// Climbing further loads the host enough to slow the runs after it.
const LadderPlan kPlan{
    .reference_rate = 100000,
    .ladder = {1.25, 1.5, 1.75, 2, 2.25, 2.5},
    .rung_seconds = 1.0,
    .warm_seconds = 1.0,
    .limit_ms = 20.0,
};

/// What a child learns from the driver, in two messages: first the
/// control port, then t0 (0 = the trial ends after the warm-up).
struct Go {
  std::uint16_t port = 0;
  std::uint64_t t0 = 0;
};

bool read_go(int fd, Go* go) {
  auto* p = reinterpret_cast<char*>(go);
  std::size_t got = 0;
  while (got < sizeof(Go)) {
    const ssize_t n = read(fd, p + got, sizeof(Go) - got);
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_go(int fd, const Go& go) {
  return write(fd, &go, sizeof go) == static_cast<ssize_t>(sizeof go);
}

std::vector<pe::broker::Record> make_batch(std::uint64_t seed,
                                           std::uint64_t first,
                                           std::uint64_t count) {
  std::vector<pe::broker::Record> out(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    pe::Bytes bytes(kRecordBytes);
    fill_record(bytes.data(), bytes.size(), seed,
                first == kWarmupSeq ? kWarmupSeq : first + i);
    out[i].value = pe::broker::Payload(std::move(bytes));
  }
  return out;
}

struct ChildArgs {
  const Options* opt;
  const Schedule* schedule;
  Shared* shared;
};

void write_child_spans(const Options& opt, std::size_t proc) {
  if (!opt.trace) return;
  write_spans(opt.run_root + "/spans-" + std::to_string(proc) + ".bin",
              Tracer::get().take());
}

// --- edge child ---------------------------------------------------------------

int edge_main(int fd, void* raw) {
  const auto& a = *static_cast<ChildArgs*>(raw);
  Go go;
  if (!read_go(fd, &go)) return 10;
  auto client = pe::transport::ControlClient::connect(go.port);
  if (!client.ok()) return 11;
  auto& c = client.value();
  auto warmup = make_batch(a.opt->seed, kWarmupSeq, 1);
  if (!c.produce(kTopic, 0, std::move(warmup), "edge-0").ok()) return 12;
  a.shared->warmup_acked_ns.store(mono_ns());
  if (!read_go(fd, &go)) return 13;
  if (go.t0 == 0) return 0;

  if (a.opt->trace) {
    const std::size_t traced = a.schedule->find(Rung::Kind::kReferenceTraced);
    Tracer::get().configure(kEdgeProc, go.t0 + a.schedule->start_ns(traced),
                            go.t0 + a.schedule->end_ns(traced), 2'000'000);
  }
  CpuSampler cpu(a.shared, *a.schedule, kEdgeProc);
  Pacer pacer(a.shared, *a.schedule);
  pacer.start(go.t0);
  std::uint64_t count = 0;
  for (std::uint64_t first = pacer.next_batch(kBatchRecords, &count);
       count > 0; first = pacer.next_batch(kBatchRecords, &count)) {
    ScopedSpan iteration(kSpanLoadgen, first);
    auto batch = make_batch(a.opt->seed, first, count);
    const std::uint64_t now = mono_ns();
    for (std::uint64_t i = 0; i < count; ++i) pacer.sent(first + i, now);
    bool ok = false;
    // Transient failures are retried; a batch still failing is refused.
    for (int attempt = 0; attempt < 3 && !ok; ++attempt) {
      ScopedSpan span(kSpanProduceRpc, first);
      span.set_n(count);
      auto r = c.produce(kTopic, 0, batch, "edge-0");
      ok = r.ok();
      if (!ok && !r.status().is_transient()) break;
    }
    if (!ok) a.shared->refused.fetch_add(count);
  }
  cpu.stop();
  write_child_spans(*a.opt, kEdgeProc);
  return 0;
}

// --- worker child -------------------------------------------------------------

int worker_main(int fd, void* raw) {
  const auto& a = *static_cast<ChildArgs*>(raw);
  Go go;
  if (!read_go(fd, &go)) return 20;
  auto client = pe::transport::ControlClient::connect(go.port);
  if (!client.ok()) return 21;
  auto& c = client.value();
  auto where = c.lookup(kChannel);
  if (!where.ok()) return 22;
  auto ring = pe::transport::ShmRing::open(where.value().shm_name);
  if (!ring.ok()) return 23;
  auto& r = *ring.value();
  a.shared->child_ready.fetch_or(1);
  if (!read_go(fd, &go)) return 24;
  if (go.t0 == 0) return 0;

  if (a.opt->trace) {
    const std::size_t traced = a.schedule->find(Rung::Kind::kReferenceTraced);
    Tracer::get().configure(kWorkerProc, go.t0 + a.schedule->start_ns(traced),
                            go.t0 + a.schedule->end_ns(traced), 2'000'000);
  }
  CpuSampler cpu(a.shared, *a.schedule, kWorkerProc);
  Tracer& tracer = Tracer::get();
  Delivered delivered(a.schedule->total());
  std::uint64_t high = 0, pops = 0, empty = 0, since_commit = 0, last_seq = 0;
  int rc = 0;
  auto commit = [&] {
    if (since_commit == 0) return;
    ScopedSpan span(kSpanCommitRpc, last_seq);
    if (!c.commit(kGroup, kTopic, 0, last_seq + 1).ok()) rc = 25;
    since_commit = 0;
  };
  for (;;) {
    const std::uint64_t start = mono_ns();
    auto popped = r.pop();
    ++pops;
    if (!popped.ok()) {
      if (popped.status().code() != pe::StatusCode::kNotFound) {
        rc = 26;  // a poisoned ring: reported, not worked around
        break;
      }
      ++empty;
      if (r.drained_and_closed()) break;
      // The idle back-off of tools/pe_worker.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    const auto& payload = popped.value();
    std::uint64_t seq = 0;
    const std::uint64_t end = mono_ns();
    const bool valid = payload.size() == kRecordBytes &&
                       check_record(payload.data(), payload.size(), &seq) &&
                       (seq == kWarmupSeq || seq < a.schedule->total());
    r.commit();
    if (!valid) {
      a.shared->corrupt.fetch_add(1);
      continue;
    }
    if (seq == kWarmupSeq) continue;
    tracer.record(kSpanRingPop, seq, 1, start, end);
    if (!delivered.first(seq)) {
      a.shared->duplicates.fetch_add(1);
      continue;
    }
    if (high > seq) a.shared->out_of_order.fetch_add(1);
    high = std::max(high, seq + 1);
    record_done(a.shared, *a.schedule, go.t0, seq, end);
    last_seq = seq;
    if (++since_commit >= kCommitEvery) commit();
  }
  commit();
  a.shared->pops.store(pops);
  a.shared->empty_pops.store(empty);
  a.shared->lost.store(delivered.missing(a.shared->generated.load()));
  cpu.stop();
  write_child_spans(*a.opt, kWorkerProc);
  return rc;
}

// --- driver -----------------------------------------------------------------

struct BridgeTally {
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  std::uint64_t push_failures = 0;
};

/// The in-driver hop: broker consumer -> shm ring. Runs until `stop` and
/// a poll comes back empty.
void bridge(pe::broker::Consumer& consumer, pe::transport::ShmRing& ring,
            const std::atomic<bool>& stop, BridgeTally& tally) {
  Tracer& tracer = Tracer::get();
  std::uint64_t last_heartbeat = 0;
  for (;;) {
    ScopedSpan iteration(kSpanConsume);
    std::vector<pe::broker::ConsumedRecord> records;
    {
      ScopedSpan span(kSpanBrokerPoll);
      records = consumer.poll(std::chrono::milliseconds(1));
      span.set_n(records.size());
    }
    ++tally.polls;
    const std::uint64_t now = mono_ns();
    if (now - last_heartbeat > 100'000'000) {
      ring.heartbeat();
      last_heartbeat = now;
    }
    if (records.empty()) {
      ++tally.empty_polls;
      if (stop.load()) return;
      continue;
    }
    for (const auto& rec : records) {
      std::uint64_t seq = kNoId;
      const bool traced = tracer.active(now);
      if (traced && rec.record.value.size() >= 8) {
        std::memcpy(&seq, rec.record.value.data(), 8);
      }
      ScopedSpan span(kSpanRingPush, seq);
      // A full ring is backpressure from the worker: wait it out, unless
      // the trial is ending (a worker that died never drains it).
      pe::Status s;
      do {
        s = ring.push(rec.record.value.span(), std::chrono::milliseconds(100));
      } while (!s.ok() && s.code() == pe::StatusCode::kTimeout && !stop.load());
      if (!s.ok()) ++tally.push_failures;
    }
  }
}

struct Trial {
  Child edge, worker;
  std::shared_ptr<pe::broker::Broker> broker;
  std::shared_ptr<pe::net::Fabric> fabric;
  std::unique_ptr<pe::transport::ControlPlane> control;
  std::unique_ptr<pe::transport::ShmRing> ring;
  std::string shm_name;
  std::unique_ptr<pe::broker::Consumer> consumer;
  std::atomic<bool> stop_bridge{false};
  BridgeTally tally;
  std::thread bridge_thread;
  std::uint64_t ring_full_waits = 0;
  int edge_rc = -1, worker_rc = -1;

  /// Ends the trial: the edge finishes its schedule (or exits after the
  /// warm-up), the bridge drains, the ring closes, the worker drains.
  void finish(int timeout_ms) {
    if (edge.pid > 0) edge_rc = reap_child(edge, timeout_ms);
    stop_bridge.store(true);
    if (bridge_thread.joinable()) bridge_thread.join();
    if (ring) {
      ring->close_producer();
      ring_full_waits = ring->stats().full_waits;
    }
    if (worker.pid > 0) worker_rc = reap_child(worker, timeout_ms);
    if (consumer) consumer->close();
    consumer.reset();
    if (control) control->stop();
    control.reset();
    ring.reset();
    if (!shm_name.empty()) (void)pe::transport::ShmRing::unlink(shm_name);
    shm_name.clear();
  }
  ~Trial() { finish(2000); }
};

/// Forks both children (the driver has no other thread here), starts the
/// broker, control plane, ring and bridge, and waits until the worker has
/// the ring and the edge's warm-up batch was acked.
bool set_up(Trial& t, ChildArgs& args, const Options& opt, int trial,
            std::string* error) {
  args.shared->child_ready.store(0);
  args.shared->warmup_acked_ns.store(0);
  t.edge = fork_child(&edge_main, &args);
  t.worker = fork_child(&worker_main, &args);
  if (t.edge.pid <= 0 || t.worker.pid <= 0) {
    *error = "fork";
    return false;
  }
  t.fabric = make_loopback_fabric();
  t.broker = std::make_shared<pe::broker::Broker>("s");
  // Bounded memory: records the bridge has forwarded need not stay.
  pe::broker::TopicConfig topic;
  topic.retention.max_bytes = 64ull << 20;
  if (!t.broker->create_topic(kTopic, topic).ok()) {
    *error = "create_topic";
    return false;
  }
  t.control = std::make_unique<pe::transport::ControlPlane>(t.broker.get());
  if (auto s = t.control->start(); !s.ok()) {
    *error = "control plane: " + s.to_string();
    return false;
  }
  t.shm_name = "/" + opt.shm_prefix + "-" + std::to_string(trial);
  auto ring = pe::transport::ShmRing::create(t.shm_name, kRingBytes);
  if (!ring.ok()) {
    *error = "ring: " + ring.status().to_string();
    t.shm_name.clear();
    return false;
  }
  t.ring = std::move(ring).value();
  auto admin = pe::transport::ControlClient::connect(t.control->port());
  if (!admin.ok() ||
      !admin.value()
           .register_ring(kChannel, t.shm_name, kRingBytes, kTopic, 0)
           .ok()) {
    *error = "register_ring";
    return false;
  }
  pe::broker::ConsumerConfig ccfg;
  ccfg.auto_commit = false;
  ccfg.max_poll_records = 1024;
  t.consumer = std::make_unique<pe::broker::Consumer>(t.broker, t.fabric, "s",
                                                      "bridge", ccfg);
  if (!t.consumer->assign({{kTopic, 0}}).ok()) {
    *error = "assign";
    return false;
  }
  t.bridge_thread = std::thread(
      [&t] { bridge(*t.consumer, *t.ring, t.stop_bridge, t.tally); });
  const Go go{t.control->port(), 0};
  if (!write_go(t.edge.to_child, go) || !write_go(t.worker.to_child, go)) {
    *error = "go";
    return false;
  }
  const std::uint64_t deadline = mono_ns() + 10'000'000'000ull;
  while (args.shared->child_ready.load() != 1 ||
         args.shared->warmup_acked_ns.load() == 0) {
    if (mono_ns() > deadline) {
      *error = "children not ready";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

}  // namespace

Outcome run_edge_wire(const Options& opt) {
  Outcome out;
  const Schedule schedule = make_schedule(kPlan, opt.seconds, opt.trace);
  Shared* shared = map_shared();
  if (shared == nullptr) {
    out.fail("mmap of shared state");
    return out;
  }
  ChildArgs args{&opt, &schedule, shared};
  std::vector<double> setups;
  std::unique_ptr<Trial> trial;
  for (int i = 0; i < kSetupTrials; ++i) {
    if (trial) {
      (void)write_go(trial->edge.to_child, Go{});
      (void)write_go(trial->worker.to_child, Go{});
      trial.reset();
    }
    trial = std::make_unique<Trial>();
    const std::uint64_t begin = mono_ns();
    std::string error;
    if (!set_up(*trial, args, opt, i, &error)) {
      out.fail("set-up: " + error);
      trial.reset();
      unmap_shared(shared);
      return out;
    }
    setups.push_back(static_cast<double>(mono_ns() - begin) / 1e9);
  }
  const std::uint64_t frames0 = counter_value("transport.frames_in");

  shared->t0_ns.store(mono_ns() + 20'000'000);
  const std::uint64_t t0 = shared->t0_ns.load();
  if (opt.trace) {
    const std::size_t traced = schedule.find(Rung::Kind::kReferenceTraced);
    Tracer::get().configure(0, t0 + schedule.start_ns(traced),
                            t0 + schedule.end_ns(traced), 2'000'000);
  }
  CpuSampler cpu(shared, schedule, 0);
  LadderMonitor monitor(shared, schedule, kPlan.limit_ms);
  monitor.watch({static_cast<int>(getpid()), trial->edge.pid, trial->worker.pid});
  monitor.start();
  const Go go{trial->control->port(), t0};
  if (!write_go(trial->edge.to_child, go) ||
      !write_go(trial->worker.to_child, go)) {
    out.fail("go");
  }
  double hot_peak = 0.0;
  const std::uint64_t run_deadline =
      t0 + schedule.end_ns(schedule.rungs().size() - 1) + 30'000'000'000ull;
  // Until the edge has sent its schedule (checked without reaping it:
  // finish() reaps).
  siginfo_t info{};
  while (mono_ns() < run_deadline) {
    hot_peak = std::max(
        hot_peak, static_cast<double>(trial->broker->hot_window_bytes()));
    info.si_pid = 0;
    if (waitid(P_PID, static_cast<id_t>(trial->edge.pid), &info,
               WEXITED | WNOHANG | WNOWAIT) != 0 ||
        info.si_pid != 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  trial->finish(30'000);
  monitor.stop();
  cpu.stop();
  if (trial->edge_rc != 0) {
    out.fail("edge exited " + std::to_string(trial->edge_rc));
  }
  if (trial->worker_rc != 0) {
    out.fail("worker exited " + std::to_string(trial->worker_rc));
  }
  if (trial->tally.push_failures > 0) {
    out.fail(std::to_string(trial->tally.push_failures) + " ring pushes failed");
  }

  summarize(*shared, schedule, monitor.result(), 3, setups, out);

  std::vector<Span> spans = Tracer::get().take();
  for (std::size_t proc : {kEdgeProc, kWorkerProc}) {
    auto child = read_spans(opt.run_root + "/spans-" + std::to_string(proc) +
                            ".bin");
    spans.insert(spans.end(), child.begin(), child.end());
  }
  const double generated = static_cast<double>(shared->generated.load());
  out.layer("broker.hot_window_peak_mb", hot_peak / (1024.0 * 1024.0), "MiB");
  out.layer_span_us("broker.poll_us", spans, kSpanBrokerPoll);
  out.layer("broker.poll_empty_frac",
            ratio(static_cast<double>(trial->tally.empty_polls),
                  static_cast<double>(trial->tally.polls)),
            "ratio");
  out.layer_span_us("transport.produce_rpc_us", spans, kSpanProduceRpc);
  const double frames = static_cast<double>(
      counter_or_absent("transport.frames_in", out) - frames0);
  out.layer("transport.frames_per_krec", ratio(1000.0 * frames, generated),
            "count");
  out.layer_span_us("transport.ring_push_us", spans, kSpanRingPush);
  out.layer("transport.ring_full_waits",
            static_cast<double>(trial->ring_full_waits), "count");
  out.layer("transport.ring_pop_empty_frac",
            ratio(static_cast<double>(shared->empty_pops.load()),
                  static_cast<double>(shared->pops.load())),
            "ratio");
  std::vector<double> residency =
      join_on_id(spans, kSpanRingPush, kSpanRingPop);
  for (auto& v : residency) v /= 1e6;
  out.layer_pct("transport.ring_residency_ms", std::move(residency), "ms");
  out.layer_span_us("transport.commit_rpc_us", spans, kSpanCommitRpc);
  if (opt.trace) summarize_trace(spans, *shared, schedule, 3, opt, out);

  trial.reset();
  unmap_shared(shared);
  return out;
}

}  // namespace pebench
