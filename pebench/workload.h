// The contract every workload follows: build a schedule from --seconds,
// run it, and return its metrics by name.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "network/fabric.h"

namespace pebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_root;  // fresh durable roots and child span files
  std::string out_dir;   // where a traced run leaves its spans
  std::string shm_prefix;  // every /dev/shm name this run creates starts so
};

/// A workload's fixed ladder: the reference rate (lowest rung, about half
/// the sustained rate on a 4-core x86 host), the multipliers of the rungs
/// above it, and its p99 latency limit.
struct LadderPlan {
  double reference_rate = 0.0;
  std::vector<double> ladder;  // multipliers of reference_rate, ascending
  double rung_seconds = 1.0;
  double warm_seconds = 1.0;
  double limit_ms = 0.0;
};

/// Warm rung, reference rung (split into an untraced and a traced half in
/// a traced run), then the ladder; the reference rung takes whatever of
/// `seconds` the others leave.
Schedule make_schedule(const LadderPlan& plan, double seconds, bool trace);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  /// A timed per-layer metric: `<name>.p50` and `<name>.p99`.
  void layer_pct(const std::string& name, std::vector<double> values,
                 const std::string& unit);
  /// layer_pct of the durations, in us, of the spans named `span`.
  void layer_span_us(const std::string& name, const std::vector<Span>& spans,
                     std::uint32_t span);
  void fail(const std::string& why) {
    correct = false;
    notes.push_back("GATE FAILED: " + why);
  }
};

/// num / den, or 0 when den is 0.
inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// e2e_p50_ms, e2e_p99_ms and cpu_us_per_rec are taken over this share of
/// the reference rung's windows: those in which the hypervisor took the
/// least CPU time from this machine (steal). Steal is the host's doing,
/// not the program's, and on a shared host it sets the tail.
inline constexpr double kQuietShare = 0.5;

/// Setup trials per run; setup_s is their median.
inline constexpr int kSetupTrials = 21;
double median(std::vector<double> values);

/// The end-to-end numbers every workload reports the same way, from the
/// shared counters and the ladder verdicts. `procs` is how many processes
/// sampled CPU into `shared`. `setups` are the setup trial times.
void summarize(const Shared& shared, const Schedule& schedule,
               const LadderMonitor::Result& ladder, std::size_t procs,
               const std::vector<double>& setups, Outcome& out);

/// Per-layer metrics every workload reports from its spans: per-layer
/// self time and share of the traced window, and the tracing overhead.
void summarize_trace(const std::vector<Span>& spans, const Shared& shared,
                     const Schedule& schedule, std::size_t procs,
                     const Options& opt, Outcome& out);

/// Reads a counter by name from MetricsRegistry::global(); 0 when the
/// library has not registered it (yet).
std::uint64_t counter_value(const std::string& name);
/// The same, for the end of a run: a counter the library no longer has
/// reads as 0 and is noted as absent.
std::uint64_t counter_or_absent(const std::string& name, Outcome& out);

/// A fabric with one site "s" whose loopback link is free: zero latency,
/// unbounded bandwidth.
std::shared_ptr<pe::net::Fabric> make_loopback_fabric();

Outcome run_sensor_durable(const Options& opt);
Outcome run_edge_wire(const Options& opt);
Outcome run_kmeans_pipeline(const Options& opt);

}  // namespace pebench
