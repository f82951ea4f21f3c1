#pragma once
///
/// \file common.hpp
/// \brief Shared plumbing of the end-to-end benchmark: command-line
/// options, clocks, sample statistics, the seeded input generator and the
/// one-line JSON result every run prints last.
///

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

using clock = std::chrono::steady_clock;

/// Captured during static initialization, before main(): the reference
/// point of the cold `setup_s` measurement.
clock::time_point process_start();

double seconds_since(clock::time_point t0);

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

/// splitmix64: every seeded input of the benchmark derives from this.
class rng {
 public:
  explicit rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the correctness verdict, the operation tally and
/// the metrics of the requested kind (end-to-end untraced, per-layer traced).
struct result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;
  std::vector<std::string> failures;  ///< one line per failed check

  /// Record a correctness check; a false `ok` marks the run incorrect.
  void check(bool ok, const std::string& what);
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  std::string to_json() const;
};

}  // namespace pb
