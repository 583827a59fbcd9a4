// Benchmark driver: runs one workload for --seconds and prints every
// metric by name with its unit, then one JSON result line.
//
//   pe_bench --workload <sensor_durable|edge_wire|kmeans_pipeline>
//            --seed <n> --seconds <s> --trace <0|1> [--root <dir>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 additionally traces
// the second half of the reference rung and reports the per-layer ones.
// Exits 1 when a correctness gate fails, 2 on bad usage.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>

#include "common/logging.h"
#include "workload.h"

namespace {

using pebench::Metric;
using pebench::Outcome;

/// Every per-layer metric, in the order printed. A workload that does not
/// exercise a layer reports it as 0.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"e2e_p99_ms", "ms"},
    {"cluster.enqueue_us.p50", "us"},      {"cluster.enqueue_us.p99", "us"},
    {"cluster.records_per_batch", "records"},
    {"cluster.ingest_ms.p50", "ms"},       {"cluster.ingest_ms.p99", "ms"},
    {"cluster.poll_us.p50", "us"},         {"cluster.poll_us.p99", "us"},
    {"cluster.poll_empty_frac", "ratio"},
    {"cluster.commit_us.p50", "us"},       {"cluster.commit_us.p99", "us"},
    {"cluster.produce_retries", "count"},  {"cluster.throttle_waits", "count"},
    {"cluster.replication_ratio", "ratio"},
    {"storage.fsyncs_per_krec", "count"},
    {"storage.fsync_us.p50", "us"},        {"storage.fsync_us.p99", "us"},
    {"broker.hot_window_peak_mb", "MiB"},
    {"broker.poll_us.p50", "us"},          {"broker.poll_us.p99", "us"},
    {"broker.poll_empty_frac", "ratio"},
    {"transport.produce_rpc_us.p50", "us"}, {"transport.produce_rpc_us.p99", "us"},
    {"transport.frames_per_krec", "count"},
    {"transport.ring_push_us.p50", "us"},  {"transport.ring_push_us.p99", "us"},
    {"transport.ring_full_waits", "count"},
    {"transport.ring_pop_empty_frac", "ratio"},
    {"transport.ring_residency_ms.p50", "ms"},
    {"transport.ring_residency_ms.p99", "ms"},
    {"transport.commit_rpc_us.p50", "us"}, {"transport.commit_rpc_us.p99", "us"},
    {"data.generate_us.p50", "us"},        {"data.generate_us.p99", "us"},
    {"ml.process_us.p50", "us"},           {"ml.process_us.p99", "us"},
    {"core.ingress_ms.p50", "ms"},         {"core.ingress_ms.p99", "ms"},
    {"core.broker_residency_ms.p50", "ms"},
    {"core.broker_residency_ms.p99", "ms"},
    {"core.processing_ms.p50", "ms"},      {"core.processing_ms.p99", "ms"},
    {"ml.outlier_recall", "ratio"},
    {"loadgen.late_p99_ms", "ms"},         {"backlog.peak_records", "records"},
    {"selftime.bench_share", "ratio"},     {"selftime.broker_share", "ratio"},
    {"selftime.cluster_share", "ratio"},   {"selftime.data_share", "ratio"},
    {"selftime.ml_share", "ratio"},        {"selftime.transport_share", "ratio"},
    {"trace.overhead_p50_ms", "ms"},       {"trace.overhead_cpu_us_per_rec", "us"},
};

int usage() {
  std::fprintf(stderr,
               "usage: pe_bench --workload <sensor_durable|edge_wire|"
               "kmeans_pipeline> --seed <n> --seconds <s> --trace <0|1> "
               "[--root <dir>]\n");
  return 2;
}

void print_json_metrics(const std::vector<Metric>& metrics) {
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  pebench::Options opt;
  std::string root = ".";
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::atof(value);
    else if (key == "--trace") trace = std::atoi(value);
    else if (key == "--root") root = value;
    else return usage();
  }
  if (opt.workload.empty() || trace < 0 || trace > 1 || !(opt.seconds > 0)) {
    return usage();
  }
  opt.trace = trace == 1;
  pe::Logger::set_level(pe::LogLevel::kError);

  const std::string base = root + "/.bench_run";
  opt.run_root = pebench::make_run_dir(base, opt.seed);
  opt.out_dir = base + "/trace";
  std::filesystem::create_directories(opt.out_dir);
  opt.shm_prefix = "pebench-" + std::to_string(getpid()) + "-" +
                   std::to_string(opt.seed);
  if (opt.run_root.empty()) {
    std::fprintf(stderr, "cannot create a run directory under %s\n", base.c_str());
    return 1;
  }

  Outcome out;
  if (opt.workload == "sensor_durable") {
    out = pebench::run_sensor_durable(opt);
  } else if (opt.workload == "edge_wire") {
    out = pebench::run_edge_wire(opt);
  } else if (opt.workload == "kmeans_pipeline") {
    out = pebench::run_kmeans_pipeline(opt);
  } else {
    return usage();
  }

  // Hygiene: nothing this run created may outlive it.
  pebench::remove_tree(opt.run_root);
  if (std::filesystem::exists(opt.run_root)) out.fail("run directory left behind");
  for (const auto& name : pebench::shm_objects(opt.shm_prefix)) {
    out.fail("shm object left behind: /dev/shm/" + name);
  }

  std::vector<Metric> layer;
  std::set<std::string> have;
  for (const auto& m : out.per_layer) have.insert(m.name);
  for (const auto& [name, unit] : kPerLayer) {
    double value = 0.0;
    for (const auto& m : out.per_layer) {
      if (m.name == name) value = m.value;
    }
    layer.push_back({name, value, unit});
  }
  for (const auto& m : out.per_layer) {
    bool known = false;
    for (const auto& [name, unit] : kPerLayer) known = known || m.name == name;
    if (!known) out.notes.push_back("unlisted per-layer metric " + m.name);
  }

  for (const auto& n : out.notes) std::printf("note %s\n", n.c_str());
  for (const auto& m : out.end_to_end) {
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (opt.trace) {
    for (const auto& m : layer) {
      std::printf("layer %s = %.6g %s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), have.count(m.name) ? "" : " (not exercised)");
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  print_json_metrics(opt.trace ? layer : out.end_to_end);
  std::printf("}\n");
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
