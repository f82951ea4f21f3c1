///
/// \file main.cpp
/// \brief Entry point of the end-to-end benchmark:
///
///   nlh_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///   nlh_perfbench --selftest
///
/// Runs one workload and prints, as the last line of standard output, one
/// JSON object: the correctness verdict, the operations attempted and
/// failed, and every end-to-end metric (`--trace 0`) or every per-layer
/// metric (`--trace 1`). Per-layer metrics a workload does not exercise
/// read 0. Diagnostics and failed checks go to standard error.
///

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace {

using metric_table = std::vector<std::pair<const char*, const char*>>;  // name, unit

const metric_table kEndToEnd = {
    {"setup_s", "s"},         {"run_s", "s"},          {"latency_p50_s", "s"},
    {"latency_p95_s", "s"},   {"peak_rss_mib", "MiB"},
};

const metric_table kPerLayer = {
    {"kernel.seconds_per_step", "s"},
    {"kernel.dps_per_step", "count"},
    {"kernel.insitu_mdps", "MDPS"},
    {"kernel.standalone_mdps", "MDPS"},
    {"kernel.standalone_grid_mdps", "MDPS"},
    {"kernel.insitu_ratio", "ratio"},
    {"kernel.fma_per_dp", "count"},
    {"source.seconds_per_step", "s"},
    {"dist.interior_s_per_step", "s"},
    {"dist.strip_s_per_step", "s"},
    {"dist.aux_s_per_step", "s"},
    {"dist.drain_wait_s_per_step", "s"},
    {"dist.tasks_per_step", "count"},
    {"dist.early_tasks_per_step", "count"},
    {"dist.sched_overhead_s_per_step", "s"},
    {"dist.idle_s_per_step", "s"},
    {"dist.plan_compiles", "count"},
    {"net.messages_per_step", "count"},
    {"net.ghost_bytes_per_step", "B"},
    {"net.pack_send_s_per_step", "s"},
    {"net.unpack_s_per_step", "s"},
    {"amt.busy_fraction_max", "ratio"},
    {"amt.busy_fraction_min", "ratio"},
    {"amt.critical_path_s_per_step", "s"},
    {"balance.epochs", "count"},
    {"balance.moves", "count"},
    {"balance.epoch_s", "s"},
    {"balance.final_max_over_ideal", "ratio"},
    {"partition.seconds", "s"},
    {"partition.edge_cut", "DPs"},
    {"partition.balance", "ratio"},
    {"ckpt.checkpoint_s", "s"},
    {"ckpt.restore_s", "s"},
    {"ckpt.bytes_encoded", "B"},
    {"ckpt.compression_ratio", "ratio"},
    {"api.session_build_s", "s"},
    {"api.step_overhead_s", "s"},
    {"svc.queue_wait_p50_s", "s"},
    {"svc.exec_p50_s", "s"},
    {"svc.jobs_per_s", "1/s"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"obs.events_per_step", "count"},
    {"obs.dropped_events", "count"},
};

int usage() {
  std::fprintf(stderr,
               "usage: nlh_perfbench --workload <serial_manufactured|dist_pulse|"
               "dist_skew_rebalance|service_mix> --seed <n> --seconds <s> --trace <0|1>\n"
               "       nlh_perfbench --selftest\n");
  return 2;
}

/// Put the workload's metrics into the table's order and units. Every
/// end-to-end metric must be measured; a per-layer metric the workload
/// does not exercise reads 0. Returns false on a name or unit the table
/// does not know.
bool canonicalize(pb::result& r, const metric_table& table, bool zero_fill) {
  std::map<std::string, pb::metric> got;
  for (const auto& m : r.metrics) got[m.name] = m;
  std::vector<pb::metric> out;
  for (const auto& [name, unit] : table) {
    const auto it = got.find(name);
    if (it == got.end()) {
      if (!zero_fill) {
        std::fprintf(stderr, "metric %s was not measured\n", name);
        return false;
      }
      out.push_back({name, 0.0, unit});
      continue;
    }
    if (it->second.unit != unit) {
      std::fprintf(stderr, "metric %s has unit %s, expected %s\n", name,
                   it->second.unit.c_str(), unit);
      return false;
    }
    r.check(std::isfinite(it->second.value), std::string("metric ") + name + " is not finite");
    out.push_back(it->second);
    got.erase(it);
  }
  for (const auto& [name, m] : got) {
    std::fprintf(stderr, "metric %s is not in the table\n", name.c_str());
    return false;
  }
  r.metrics = std::move(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  pb::options o;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return pb::run_selftest() == 0 ? 0 : 1;
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have[0] = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      have[1] = end && *end == '\0';
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      have[2] = end && *end == '\0' && o.seconds > 0.0;
    } else if (a == "--trace") {
      o.trace = v == "1";
      have[3] = v == "0" || v == "1";
    } else {
      return usage();
    }
  }
  for (bool h : have)
    if (!h) return usage();

  pb::result (*run)(const pb::options&) = nullptr;
  if (o.workload == "serial_manufactured") run = pb::run_serial_manufactured;
  if (o.workload == "dist_pulse") run = pb::run_dist_pulse;
  if (o.workload == "dist_skew_rebalance") run = pb::run_dist_skew_rebalance;
  if (o.workload == "service_mix") run = pb::run_service_mix;
  if (!run) return usage();

  pb::result r;
  try {
    r = run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s threw: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  if (!canonicalize(r, o.trace ? kPerLayer : kEndToEnd, o.trace)) return 1;
  for (const auto& f : r.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  std::printf("%s\n", r.to_json().c_str());
  return 0;
}
