#pragma once
///
/// \file trace_ledger.hpp
/// \brief Adds up the spans the program already exports through
/// `obs::tracer` into per-layer totals: time and count per span name,
/// `amt/task` self time (its duration minus the child spans it covers),
/// per-locality task time, and the per-step critical path (the busiest
/// locality's task time inside each `dist/step`).
///

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

struct trace_ledger {
  std::map<std::string, double> seconds;        ///< summed 'X' durations by name
  std::map<std::string, std::uint64_t> count;   ///< events by name (any phase)
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  double task_self_s = 0.0;                     ///< amt/task minus child spans
  /// Task seconds and worker count per locality ("loc<L>"), or per pool
  /// track name when the locality is unknown ("worker").
  std::map<std::string, double> group_task_s;
  std::map<std::string, int> group_threads;
  /// Sum over dist/step spans of the largest per-thread-average task time
  /// of any group: the step's wall-time lower bound set by its busiest
  /// locality.
  double critical_path_s = 0.0;

  double sec(const std::string& name) const {
    const auto it = seconds.find(name);
    return it == seconds.end() ? 0.0 : it->second;
  }
  std::uint64_t cnt(const std::string& name) const {
    const auto it = count.find(name);
    return it == count.end() ? 0 : it->second;
  }
  /// Accumulate another traced round.
  void merge(const trace_ledger& o);
};

/// Give threads that first touch the tracer from now on rings of
/// `ring_capacity` events, without turning tracing on.
void set_ring_capacity(std::size_t ring_capacity);

/// Turn tracing on, giving threads that first touch the tracer from now on
/// rings of `ring_capacity` events. Call before the threads to be traced
/// start: a ring's size is fixed when its thread first touches the tracer
/// (pool workers do so at start, traced or not).
void begin_tracing(std::size_t ring_capacity);
/// Turn tracing off and restore the default ring size for later threads.
void end_tracing();

/// Snapshot the tracer into a ledger and clear it. Call only while no
/// traced work is in flight (the traced solver's pools joined), so that no
/// event lands between the snapshot and the clear.
///
/// Pool tracks are grouped by locality. The distributed solver's workers
/// carry no locality in their track names, so with `initial_owner` (the
/// owner of every SD when the traced round started) a thread's locality
/// is the owner of the SD of its first `dist/interior` span: that task ran
/// on the owner's pool before any migration could happen.
trace_ledger collect_trace(const std::vector<int>* initial_owner = nullptr);

}  // namespace pb
