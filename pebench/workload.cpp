#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "telemetry/metrics.h"

namespace pebench {

Schedule make_schedule(const LadderPlan& plan, double seconds, bool trace) {
  const double ladder_s =
      plan.rung_seconds * static_cast<double>(plan.ladder.size());
  // The reference rung gets what is left, but never less than 40% of the
  // run: a short --seconds shrinks every rung proportionally instead.
  double scale = 1.0;
  if (seconds - plan.warm_seconds - ladder_s < 0.4 * seconds) {
    scale = 0.6 * seconds / (plan.warm_seconds + ladder_s);
  }
  const double warm = plan.warm_seconds * scale;
  const double rung = plan.rung_seconds * scale;
  const double reference = seconds - warm - rung * plan.ladder.size();
  std::vector<Rung> rungs;
  rungs.push_back({plan.reference_rate, warm, Rung::Kind::kWarm});
  if (trace) {
    rungs.push_back({plan.reference_rate, reference / 2, Rung::Kind::kReference});
    rungs.push_back(
        {plan.reference_rate, reference / 2, Rung::Kind::kReferenceTraced});
  } else {
    rungs.push_back({plan.reference_rate, reference, Rung::Kind::kReference});
  }
  for (double m : plan.ladder) {
    rungs.push_back({plan.reference_rate * m, rung, Rung::Kind::kLadder});
  }
  return Schedule(std::move(rungs));
}

void Outcome::layer_pct(const std::string& name, std::vector<double> values,
                        const std::string& unit) {
  layer(name + ".p50", percentile(values, 0.50), unit);
  layer(name + ".p99", percentile(std::move(values), 0.99), unit);
}

void Outcome::layer_span_us(const std::string& name,
                            const std::vector<Span>& spans, std::uint32_t span) {
  std::vector<double> us;
  for (const auto& s : spans) {
    if (s.name == span) {
      us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  layer_pct(name, std::move(us), "us");
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

double proc_cpu_us(const Shared& shared, std::size_t rung, std::size_t p) {
  const std::uint64_t a = shared.cpu_us[p][rung].load();
  const std::uint64_t b = shared.cpu_us[p][rung + 1].load();
  return a == 0 || b < a ? 0.0 : static_cast<double>(b - a);
}

double rung_cpu_us_per_rec(const Shared& shared, std::size_t rung,
                           std::size_t procs) {
  double cpu = 0.0;
  for (std::size_t p = 0; p < procs; ++p) {
    const std::uint64_t a = shared.cpu_us[p][rung].load();
    const std::uint64_t b = shared.cpu_us[p][rung + 1].load();
    if (a == 0 || b < a) return 0.0;  // boundary never sampled
    cpu += static_cast<double>(b - a);
  }
  const std::uint64_t records = shared.rung[rung].generated.load();
  return records == 0 ? 0.0 : cpu / static_cast<double>(records);
}

double rung_quantile_ms(const Shared& shared, std::size_t rung, double q) {
  const auto& stats = shared.rung[rung];
  const std::uint64_t generated = stats.generated.load();
  const std::uint64_t done = stats.done.load();
  return stats.e2e.quantile_ns(q, generated > done ? generated - done : 0) /
         1e6;
}

/// The reference rung's figures over its quietest windows.
struct Quiet {
  std::size_t windows = 0;  // chosen
  std::size_t of = 0;       // all
  std::uint64_t records = 0;  // due in the chosen windows
  double steal_chosen = 0.0, steal_all = 0.0;  // ticks
  double p50_ms = 0.0, p99_ms = 0.0, cpu_us_per_rec = 0.0;
};

Quiet quiet_figures(const Shared& shared, const Schedule& schedule,
                    std::size_t procs) {
  Quiet q;
  q.of = schedule.windows();
  std::vector<double> steal(q.of, -1.0);
  for (std::size_t w = 0; w < q.of; ++w) {
    const std::uint64_t a = shared.window_steal[w].load();
    const std::uint64_t b = shared.window_steal[w + 1].load();
    bool sampled = a != 0 && b >= a;
    for (std::size_t p = 0; p < procs; ++p) {
      sampled = sampled && shared.window_cpu_us[p][w].load() != 0 &&
                shared.window_cpu_us[p][w + 1].load() >=
                    shared.window_cpu_us[p][w].load();
    }
    if (!sampled) continue;
    steal[w] = static_cast<double>(b - a);
    q.steal_all += steal[w];
  }
  const auto k = static_cast<std::size_t>(
      std::ceil(kQuietShare * static_cast<double>(q.of)));
  const std::vector<std::size_t> chosen = quietest_windows(steal, k);
  q.windows = chosen.size();
  auto e2e = std::make_unique<LatencyHistogram>();
  std::uint64_t generated = 0, done = 0;
  double cpu = 0.0;
  for (std::size_t w : chosen) {
    const auto& stats = shared.window[w];
    e2e->add_all(stats.e2e);
    generated += stats.generated.load();
    done += stats.done.load();
    for (std::size_t p = 0; p < procs; ++p) {
      cpu += static_cast<double>(shared.window_cpu_us[p][w + 1].load() -
                                 shared.window_cpu_us[p][w].load());
    }
    q.steal_chosen += steal[w];
  }
  q.records = generated;
  const std::uint64_t missing = generated > done ? generated - done : 0;
  q.p50_ms = e2e->quantile_ns(0.50, missing) / 1e6;
  q.p99_ms = e2e->quantile_ns(0.99, missing) / 1e6;
  q.cpu_us_per_rec = generated == 0 ? 0.0 : cpu / static_cast<double>(generated);
  return q;
}

/// Achieved offered rate of a rung, as measured between its first and
/// last actual send.
double rung_rate(const Shared& shared, std::size_t rung) {
  const auto& stats = shared.rung[rung];
  const std::uint64_t n = stats.generated.load();
  const std::uint64_t a = stats.first_send_ns.load();
  const std::uint64_t b = stats.last_send_ns.load();
  if (n < 2 || b <= a) return 0.0;
  return static_cast<double>(n - 1) / (static_cast<double>(b - a) / 1e9);
}

}  // namespace

void summarize(const Shared& shared, const Schedule& schedule,
               const LadderMonitor::Result& ladder, std::size_t procs,
               const std::vector<double>& setups, Outcome& out) {
  const std::size_t ref = schedule.find(Rung::Kind::kReference);
  const auto& rungs = schedule.rungs();

  const Climb c = climb(schedule, ladder.judged, ladder.verdicts);
  for (std::size_t r = ref; r < rungs.size(); ++r) {
    if (!ladder.judged[r] || ladder.verdicts[r].pass()) continue;
    char line[160];
    std::snprintf(line, sizeof line,
                  "ladder: rung %zu (%.0f/s) failed:%s%s (backlog growth %.0f)",
                  r, rungs[r].rate,
                  ladder.verdicts[r].backlog_grew ? " backlog grew" : "",
                  ladder.verdicts[r].latency_missed ? " p99 over limit" : "",
                  ladder.verdicts[r].growth);
    out.notes.push_back(line);
  }
  double sustained = 0.0;
  if (c.best >= rungs.size()) {
    out.notes.push_back(
        "ladder: no rung met the limits; sustained_rps reports the "
        "reference rung's achieved rate");
    sustained = rung_rate(shared, ref);
  } else {
    if (c.best + 1 == rungs.size()) {
      out.notes.push_back("ladder: top rung passed (ceiling reached)");
    }
    sustained = rung_rate(shared, c.best);
  }

  const std::uint64_t generated = shared.generated.load();
  const std::uint64_t processed = shared.processed.load();
  const std::uint64_t refused = shared.refused.load();
  const std::uint64_t corrupt = shared.corrupt.load();
  // Holes in the delivered seqs that refusals do not explain.
  const std::uint64_t lost = shared.lost.load() > refused
                                 ? shared.lost.load() - refused
                                 : 0;
  out.attempted = std::max<std::uint64_t>(generated, 1);
  const std::uint64_t out_of_order = shared.out_of_order.load();
  out.failed = refused + corrupt + lost + out_of_order;
  if (lost > 0) {
    out.fail(std::to_string(lost) +
             " accepted records never delivered (per-partition holes)");
  }
  if (corrupt > 0) out.fail(std::to_string(corrupt) + " corrupt deliveries");
  if (out_of_order > 0) {
    out.fail(std::to_string(out_of_order) +
             " first deliveries below an earlier one of their partition");
  }
  char line[240];
  std::snprintf(line, sizeof line,
                "records: generated=%llu processed=%llu refused=%llu "
                "duplicates=%llu out_of_order=%llu failed_frac=%.6f "
                "e2e_samples=%llu",
                static_cast<unsigned long long>(generated),
                static_cast<unsigned long long>(processed),
                static_cast<unsigned long long>(refused),
                static_cast<unsigned long long>(shared.duplicates.load()),
                static_cast<unsigned long long>(out_of_order),
                static_cast<double>(out.failed) /
                    static_cast<double>(out.attempted),
                static_cast<unsigned long long>(shared.rung[ref].e2e.count()));
  out.notes.push_back(line);

  if (!setups.empty()) {
    char trials[120];
    std::snprintf(trials, sizeof trials,
                  "setup trials: %zu, min/median/max %.4f/%.4f/%.4f s",
                  setups.size(), *std::min_element(setups.begin(), setups.end()),
                  median(setups),
                  *std::max_element(setups.begin(), setups.end()));
    out.notes.push_back(trials);
  }
  out.e2e("setup_s", median(setups), "s");
  out.e2e("sustained_rps", sustained, "records/s");
  // Records that never finished count as slower than any that did.
  const double p99 = rung_quantile_ms(shared, ref, 0.99);
  if (!std::isfinite(p99)) {
    out.fail("over 1% of the reference rung's records never finished");
  }
  const double p50 = rung_quantile_ms(shared, ref, 0.50);
  const double cpu = rung_cpu_us_per_rec(shared, ref, procs);
  const Quiet quiet = quiet_figures(shared, schedule, procs);
  char pooled[240];
  std::snprintf(pooled, sizeof pooled,
                "reference rung, all of it: e2e p50 %.4f ms, p99 %.4f ms, "
                "cpu %.4f us/rec; quiet windows: %zu of %zu, steal %.0f of "
                "%.0f ticks, %llu records, e2e p99 %.4f ms",
                p50, p99, cpu, quiet.windows, quiet.of, quiet.steal_chosen,
                quiet.steal_all, static_cast<unsigned long long>(quiet.records),
                quiet.p99_ms);
  out.notes.push_back(pooled);
  if (quiet.windows == 0) {
    out.notes.push_back("no quiet window sampled: reporting the whole rung");
    out.e2e("e2e_p50_ms", p50, "ms");
    out.e2e("cpu_us_per_rec", cpu, "us");
    out.layer("e2e_p99_ms", p99, "ms");
  } else {
    if (!std::isfinite(quiet.p99_ms)) {
      out.fail("over 1% of the quiet windows' records never finished");
    }
    out.e2e("e2e_p50_ms", quiet.p50_ms, "ms");
    out.e2e("cpu_us_per_rec", quiet.cpu_us_per_rec, "us");
    out.layer("e2e_p99_ms", quiet.p99_ms, "ms");
  }
  std::string per_proc = "reference rung cpu us/rec per process:";
  for (std::size_t p = 0; p < procs; ++p) {
    char cell[32];
    std::snprintf(cell, sizeof cell, " %.3f",
                  proc_cpu_us(shared, ref, p) /
                      std::max<double>(1.0, static_cast<double>(
                                                shared.rung[ref].generated.load())));
    per_proc += cell;
  }
  out.notes.push_back(per_proc);
  out.e2e("peak_rss_mb", ladder.peak_rss_kib / 1024.0, "MiB");

  out.layer("loadgen.late_p99_ms", shared.late.quantile_ns(0.99) / 1e6, "ms");
  out.layer("backlog.peak_records", ladder.peak_backlog, "records");
}

void summarize_trace(const std::vector<Span>& spans, const Shared& shared,
                     const Schedule& schedule, std::size_t procs,
                     const Options& opt, Outcome& out) {
  const std::size_t ref = schedule.find(Rung::Kind::kReference);
  const std::size_t traced = schedule.find(Rung::Kind::kReferenceTraced);
  if (traced == schedule.rungs().size()) return;
  const double window_ns =
      static_cast<double>(schedule.end_ns(traced) - schedule.start_ns(traced));
  const std::vector<double> self = self_times_ns(spans);
  std::map<std::string, double> by_layer = {
      {"bench", 0}, {"broker", 0}, {"cluster", 0},
      {"data", 0},  {"ml", 0},     {"transport", 0}};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_layer[span_layer(spans[i].name)] += self[i];
  }
  for (const auto& [layer, ns] : by_layer) {
    out.layer("selftime." + layer + "_share", ns / window_ns, "ratio");
  }
  out.notes.push_back("trace: " + std::to_string(spans.size()) + " spans");
  out.layer("trace.overhead_p50_ms",
            rung_quantile_ms(shared, traced, 0.50) -
                rung_quantile_ms(shared, ref, 0.50),
            "ms");
  out.layer("trace.overhead_cpu_us_per_rec",
            rung_cpu_us_per_rec(shared, traced, procs) -
                rung_cpu_us_per_rec(shared, ref, procs),
            "us");
  const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".spans.csv";
  if (write_spans_csv(path, spans)) out.notes.push_back("spans: " + path);
}

std::uint64_t counter_value(const std::string& name) {
  const auto counters = pe::tel::MetricsRegistry::global().counters();
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::shared_ptr<pe::net::Fabric> make_loopback_fabric() {
  pe::net::LinkSpec loop;
  loop.from = loop.to = "<loopback>";
  loop.latency_min = loop.latency_max = pe::Duration::zero();
  loop.bandwidth_min_bps = loop.bandwidth_max_bps = 1e15;
  auto fabric = std::make_shared<pe::net::Fabric>(loop);
  (void)fabric->add_site({.id = "s"});
  return fabric;
}

std::uint64_t counter_or_absent(const std::string& name, Outcome& out) {
  const auto counters = pe::tel::MetricsRegistry::global().counters();
  auto it = counters.find(name);
  if (it == counters.end()) {
    out.notes.push_back("counter absent: " + name);
    return 0;
  }
  return it->second;
}

}  // namespace pebench
