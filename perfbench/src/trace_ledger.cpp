#include "trace_ledger.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "obs/config.hpp"
#include "obs/tracer.hpp"

namespace pb {

void trace_ledger::merge(const trace_ledger& o) {
  for (const auto& [k, v] : o.seconds) seconds[k] += v;
  for (const auto& [k, v] : o.count) count[k] += v;
  events += o.events;
  dropped += o.dropped;
  task_self_s += o.task_self_s;
  for (const auto& [k, v] : o.group_task_s) group_task_s[k] += v;
  for (const auto& [k, v] : o.group_threads)
    group_threads[k] = std::max(group_threads[k], v);
  critical_path_s += o.critical_path_s;
}

void set_ring_capacity(std::size_t ring_capacity) {
  nlh::obs::config cfg;
  cfg.ring_capacity = ring_capacity;
  nlh::obs::configure(cfg);
}

void begin_tracing(std::size_t ring_capacity) {
  set_ring_capacity(ring_capacity);
  nlh::obs::set_tracing_enabled(true);
}

void end_tracing() {
  nlh::obs::set_tracing_enabled(false);
  nlh::obs::configure(nlh::obs::config{});
}

namespace {

/// "loc3/worker-1" -> "loc3"; "worker-0" -> "worker"; other names -> "".
std::string pool_group(const std::string& thread_name) {
  const auto slash = thread_name.find("/worker-");
  if (slash != std::string::npos) return thread_name.substr(0, slash);
  if (thread_name.rfind("worker-", 0) == 0) return "worker";
  return "";
}

}  // namespace

trace_ledger collect_trace(const std::vector<int>* initial_owner) {
  auto& tr = nlh::obs::tracer::instance();
  const auto events = tr.snapshot();
  trace_ledger led;
  led.dropped = tr.dropped();
  led.events = events.size();

  std::unordered_map<std::uint32_t, std::string> group_of;
  for (const auto& [tid, name] : tr.thread_names()) {
    const auto g = pool_group(name);
    if (g.empty()) continue;
    group_of[tid] = g;
  }
  if (initial_owner) {
    // Events are sorted by start: the first dist/interior seen per thread
    // is its earliest.
    std::unordered_map<std::uint32_t, bool> placed;
    for (const auto& e : events) {
      if (e.phase != 'X' || !e.name || std::strcmp(e.name, "dist/interior") != 0 ||
          placed[e.tid])
        continue;
      placed[e.tid] = true;
      if (e.arg < initial_owner->size())
        group_of[e.tid] = "loc" + std::to_string((*initial_owner)[e.arg]);
    }
  }

  // Per-thread complete spans, for self time and per-step attribution.
  std::unordered_map<std::uint32_t, std::vector<const nlh::obs::trace_event*>> by_tid;
  std::vector<std::pair<std::int64_t, std::int64_t>> steps;  // dist/step [begin, end)
  for (const auto& e : events) {
    const std::string name = e.name ? e.name : "";
    ++led.count[name];
    if (e.phase != 'X') continue;
    led.seconds[name] += static_cast<double>(e.dur_ns) * 1e-9;
    by_tid[e.tid].push_back(&e);
    if (name == "dist/step") steps.emplace_back(e.ts_ns, e.ts_ns + e.dur_ns);
  }
  std::sort(steps.begin(), steps.end());

  // Task seconds per (step, group): a task belongs to the step whose
  // interval holds its start.
  std::vector<std::map<std::string, double>> step_group(steps.size());
  for (auto& [tid, evs] : by_tid) {
    std::sort(evs.begin(), evs.end(), [](const auto* a, const auto* b) {
      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->dur_ns > b->dur_ns;
    });
    // Only threads with events in this snapshot count as workers: names
    // outlive their threads, so earlier pools' tracks are still listed.
    const auto git = group_of.find(tid);
    if (git != group_of.end()) ++led.group_threads[git->second];
    // Nesting stack: a span's parent is the innermost open span covering
    // its start on the same thread.
    struct open_span {
      const nlh::obs::trace_event* e;
      std::int64_t child_ns;
    };
    std::vector<open_span> stack;
    auto close = [&](const open_span& s) {
      if (std::strcmp(s.e->name, "amt/task") == 0)
        led.task_self_s += static_cast<double>(s.e->dur_ns - s.child_ns) * 1e-9;
    };
    for (const auto* e : evs) {
      while (!stack.empty() && stack.back().e->ts_ns + stack.back().e->dur_ns <= e->ts_ns) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().child_ns += e->dur_ns;
      stack.push_back({e, 0});
      if (git != group_of.end() && std::strcmp(e->name, "amt/task") == 0) {
        const double s = static_cast<double>(e->dur_ns) * 1e-9;
        led.group_task_s[git->second] += s;
        const auto it = std::upper_bound(
            steps.begin(), steps.end(), std::make_pair(e->ts_ns, INT64_MAX));
        if (it != steps.begin() && e->ts_ns < std::prev(it)->second)
          step_group[static_cast<std::size_t>(std::prev(it) - steps.begin())][git->second] += s;
      }
    }
    for (const auto& s : stack) close(s);
  }
  for (const auto& per_group : step_group) {
    double worst = 0.0;
    for (const auto& [g, s] : per_group) worst = std::max(worst, s / led.group_threads[g]);
    led.critical_path_s += worst;
  }

  tr.clear();
  return led;
}

}  // namespace pb
