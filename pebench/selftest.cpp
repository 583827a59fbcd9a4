// Self-tests of the benchmark's own logic: percentiles, self time on
// hand-built spans, the rung classifier and the climb on synthetic
// series, the schedule, seeded payloads, and the cross-process span join
// on seq (through a real forked child and a span file).
//
//   pe_bench_selftest <scratch dir>
//
// Prints one line per failed check and exits 1 if any failed.
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"

using namespace pebench;

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::fabs(b);
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK(percentile(v, 0.50) == 50);
  CHECK(percentile(v, 0.99) == 99);
  CHECK(percentile(v, 1.0) == 100);
  CHECK(percentile({}, 0.5) == 0);
  CHECK(percentile({7}, 0.99) == 7);

  static LatencyHistogram h;  // zero-initialised, as in the shared map
  std::vector<double> exact;
  std::uint64_t x = 12345;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t ns = 1000 + splitmix64(x) % 5'000'000;
    h.add(ns);
    exact.push_back(static_cast<double>(ns));
  }
  for (double q : {0.5, 0.9, 0.99}) {
    CHECK(near(h.quantile_ns(q), percentile(exact, q), 0.016));
  }
  // Samples that never finished count as slower than everything.
  CHECK(std::isinf(h.quantile_ns(0.99, 1000)));
  CHECK(!std::isinf(h.quantile_ns(0.5, 1000)));

  // Merging: two halves give the quantiles of the whole.
  static LatencyHistogram low, high, both;
  for (std::uint64_t ns = 1; ns <= 1000; ++ns) low.add(ns * 1000);
  for (std::uint64_t ns = 1001; ns <= 2000; ++ns) high.add(ns * 1000);
  both.add_all(low);
  both.add_all(high);
  CHECK(both.count() == 2000);
  CHECK(near(both.quantile_ns(0.5), 1e6, 0.016));
  CHECK(near(both.quantile_ns(0.99), 1.98e6, 0.016));
  for (std::uint64_t ns : {0ull, 127ull, 128ull, 1000ull, 123456789ull}) {
    const double mid = LatencyHistogram::bucket_mid(LatencyHistogram::bucket_of(ns));
    CHECK(near(mid, static_cast<double>(ns), 0.008) || ns == 0);
  }
}

Span span(std::uint32_t proc, std::uint64_t sid, std::uint64_t parent,
          std::uint64_t start, std::uint64_t end, std::uint64_t id = kNoId,
          std::uint32_t name = kSpanConsume) {
  Span s;
  s.proc = proc;
  s.sid = sid;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.id = id;
  s.name = name;
  return s;
}

void test_self_time() {
  const std::vector<Span> spans = {
      span(0, 1, 0, 0, 100),   // root
      span(0, 2, 1, 10, 40),   // child A
      span(0, 3, 1, 30, 60),   // child B, overlaps A: union is 10..60
      span(0, 4, 2, 15, 20),   // grandchild under A
      span(0, 5, 1, 90, 120),  // child running past the root: clipped
      span(1, 1, 0, 0, 10),    // another process's sid 1: unrelated
      span(1, 2, 1, 2, 4),
  };
  const auto self = self_times_ns(spans);
  CHECK(self[0] == 100 - 50 - 10);
  CHECK(self[1] == 30 - 5);
  CHECK(self[2] == 30);
  CHECK(self[3] == 5);
  CHECK(self[4] == 30);
  CHECK(self[5] == 8);
  CHECK(self[6] == 2);
}

void test_classifier() {
  RungObservation obs;
  obs.rate = 10000;
  obs.seconds = 1.0;
  obs.p99_ms = 5.0;
  for (int i = 0; i < 100; ++i) {
    obs.backlog.emplace_back(i * 10'000'000ull, 40.0 + (i % 3));
  }
  CHECK(classify_rung(obs, 10.0).pass());
  RungObservation slow = obs;
  slow.p99_ms = 12.0;
  CHECK(classify_rung(slow, 10.0).latency_missed);
  CHECK(!classify_rung(slow, 10.0).backlog_grew);
  slow.p99_ms = INFINITY;
  CHECK(classify_rung(slow, 10.0).latency_missed);
  RungObservation growing = obs;
  for (std::size_t i = 0; i < growing.backlog.size(); ++i) {
    growing.backlog[i].second = 20.0 * static_cast<double>(i);  // +2000/s
  }
  const RungVerdict v = classify_rung(growing, 10.0);
  CHECK(v.backlog_grew);
  CHECK(!v.latency_missed);
  // Growth below 5% of the rung's records is noise, not a trend.
  RungObservation wobble = obs;
  for (std::size_t i = 0; i < wobble.backlog.size(); ++i) {
    wobble.backlog[i].second = 100.0 + static_cast<double>(i);
  }
  CHECK(!classify_rung(wobble, 10.0).backlog_grew);
  RungObservation sparse = obs;
  sparse.backlog.resize(4);
  sparse.backlog[3].second = 1e9;
  CHECK(!classify_rung(sparse, 10.0).backlog_grew);  // too few samples
}

void test_schedule_and_climb() {
  const Schedule s({{1000, 1.0, Rung::Kind::kWarm},
                    {1000, 2.0, Rung::Kind::kReference},
                    {2000, 1.0, Rung::Kind::kLadder},
                    {3000, 1.0, Rung::Kind::kLadder},
                    {4000, 1.0, Rung::Kind::kLadder},
                    {5000, 1.0, Rung::Kind::kLadder},
                    {6000, 1.0, Rung::Kind::kLadder}});
  CHECK(s.total() == 1000 + 2000 + 2000 + 3000 + 4000 + 5000 + 6000);
  CHECK(s.rung_of(0) == 0);
  CHECK(s.rung_of(999) == 0);
  CHECK(s.rung_of(1000) == 1);
  CHECK(s.rung_of(3000) == 2);
  CHECK(s.offset_ns(1000) == 1'000'000'000ull);
  CHECK(s.offset_ns(3001) == 3'000'500'000ull);
  CHECK(s.due_by(0) == 1);
  CHECK(s.due_by(3'000'500'000ull) == 3002);
  CHECK(s.due_by(100'000'000'000ull) == s.total());
  CHECK(s.find(Rung::Kind::kReference) == 1);
  CHECK(s.find(Rung::Kind::kReferenceTraced) == 7);

  // The 2 s reference rung holds four 0.5 s windows; other rungs none.
  CHECK(s.windows() == 4);
  CHECK(s.window_start_ns(1) == 1'500'000'000ull);
  CHECK(s.window_of(999) == 4);
  CHECK(s.window_of(1000) == 0);
  CHECK(s.window_of(1499) == 0);
  CHECK(s.window_of(1500) == 1);
  CHECK(s.window_of(2999) == 3);
  CHECK(s.window_of(3000) == 4);
  // A tail shorter than a window belongs to none.
  const Schedule tail({{100, 1.2, Rung::Kind::kReference}});
  CHECK(tail.windows() == 2);
  CHECK(tail.window_of(99) == 1);
  CHECK(tail.window_of(110) == 2);
  // A long rung gets longer windows, never more than kMaxWindows.
  const Schedule longer({{10, 100.0, Rung::Kind::kReference}});
  CHECK(longer.windows() <= kMaxWindows && longer.windows() >= kMaxWindows - 1);

  // Quietest windows: least steal first, earlier among equals, unsampled
  // (negative) never; returned in time order.
  using W = std::vector<std::size_t>;
  CHECK(quietest_windows({3, 0, -1, 0, 5, 1}, 3) == W({1, 3, 5}));
  CHECK(quietest_windows({3, 0, -1, 0, 5, 1}, 10) == W({0, 1, 3, 4, 5}));
  CHECK(quietest_windows({2, 2, 2}, 2) == W({0, 1}));
  CHECK(quietest_windows({}, 2).empty());

  auto run = [&](std::vector<int> outcome) {  // 1 pass, 0 fail, -1 unjudged
    std::vector<bool> judged(7, false);
    std::vector<RungVerdict> v(7);
    for (std::size_t i = 0; i < outcome.size(); ++i) {
      judged[i + 1] = outcome[i] >= 0;
      v[i + 1].latency_missed = outcome[i] == 0;
    }
    return climb(s, judged, v);
  };
  Climb c = run({1, 1, 1, 0, 0, -1});
  CHECK(c.best == 3 && c.stopped && c.stop_at == 6);
  c = run({1, 1, 0, 1, 0, 0});  // one transient failure is climbed past
  CHECK(c.best == 4 && c.stopped && c.stop_at == 7);
  c = run({1, 1, 1, 1, 1, 1});
  CHECK(c.best == 6 && !c.stopped);
  c = run({0, 0, -1, -1, -1, -1});
  CHECK(c.best == ~std::size_t{0} && c.stopped && c.stop_at == 3);
  c = run({1, 0, -1, -1, -1, -1});  // still waiting on rung 3
  CHECK(c.best == 1 && !c.stopped);
}

void test_payloads() {
  std::uint8_t a[256], b[256];
  fill_record(a, sizeof a, 7, 42);
  fill_record(b, sizeof b, 7, 42);
  CHECK(std::memcmp(a, b, sizeof a) == 0);
  fill_record(b, sizeof b, 8, 42);
  CHECK(std::memcmp(a, b, sizeof a) != 0);
  std::uint64_t seq = 0;
  CHECK(check_record(a, sizeof a, &seq) && seq == 42);
  a[100] ^= 1;
  CHECK(!check_record(a, sizeof a, &seq));
  std::uint8_t small[64];
  fill_record(small, sizeof small, 1, kWarmupSeq);
  CHECK(check_record(small, sizeof small, &seq) && seq == kWarmupSeq);

  Delivered d(130);
  CHECK(d.first(5) && !d.first(5) && d.first(129));
  Delivered sent(130);
  sent.first(5);
  sent.first(6);
  CHECK(d.missing(130) == 128);
  CHECK(d.missing(130, &sent) == 1);
}

void test_cross_process_join(const std::string& dir) {
  // The driver side pushes seqs 1..3; a forked child pops 1..3 and 9 and
  // writes its spans to a file, as the edge_wire worker does.
  const std::string path = dir + "/selftest-spans.bin";
  const std::uint64_t base = mono_ns();
  Tracer::get().configure(0, base, base + 60'000'000'000ull, 1000);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    Tracer::get().record(kSpanRingPush, seq, 1, base + seq * 1000, base + seq * 1000 + 10);
  }
  std::vector<Span> spans = Tracer::get().take();
  const pid_t pid = fork();
  if (pid == 0) {
    Tracer::get().take();  // the child starts from the parent's copy
    Tracer::get().configure(2, base, base + 60'000'000'000ull, 1000);
    for (std::uint64_t seq : {1ull, 2ull, 3ull, 2ull, 9ull}) {
      Tracer::get().record(kSpanRingPop, seq, 1, base + seq * 1000 + 500,
                           base + seq * 1000 + 600);
    }
    _exit(write_spans(path, Tracer::get().take()) ? 0 : 1);
  }
  int status = 0;
  CHECK(pid > 0 && waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
        WEXITSTATUS(status) == 0);
  const std::vector<Span> child = read_spans(path);
  std::remove(path.c_str());
  CHECK(child.size() == 5);
  CHECK(!child.empty() && child[0].proc == 2);
  spans.insert(spans.end(), child.begin(), child.end());
  const auto residency = join_on_id(spans, kSpanRingPush, kSpanRingPop);
  CHECK(residency.size() == 3);  // seq 9 has no push; seq 2 joins once
  for (double r : residency) CHECK(r == 490);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  test_percentiles();
  test_self_time();
  test_classifier();
  test_schedule_and_climb();
  test_payloads();
  test_cross_process_join(dir);
  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
