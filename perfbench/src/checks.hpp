#pragma once
///
/// \file checks.hpp
/// \brief The benchmark's correctness checks as pure functions of the
/// program's outputs, so the self-test can feed each one a perturbed input
/// and confirm it reports the failure. No check compares against a stored
/// copy of earlier output: each one tests a property the method must have.
///

#include <cstdint>
#include <vector>

#include "nonlocal/grid2d.hpp"

namespace pb::checks {

/// Every double of `a` equals the one of `b` bit for bit.
bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b);

/// A-priori bound on forward Euler's max-relative error for the
/// manufactured problem at t_final. The semi-discrete solution is
/// w(t) = cos(2 pi t) S(x) exactly (the source is built from L_h S), the
/// stepping is non-expansive in the max norm below the stability bound,
/// and the local error is dt^2/2 |w''| with |w''| <= 4 pi^2 max|S|, so
/// |e(T)| <= 2 pi^2 dt T max|S| while max|w(T)| = |cos(2 pi T)| max|S|.
double euler_error_bound(double dt, double t_final);

/// `value` is a finite number no larger than `bound`.
bool within(double value, double bound);

/// Halving dt to the same final time halves a first-order method's error:
/// err_dt / err_half must lie in 2 +- 0.1.
bool halving_ratio_ok(double err_dt, double err_half);

struct field_summary {
  double max = 0.0;
  double sum = 0.0;
  double min = 0.0;
};

/// Max, sum and min over the interior DPs of a padded field.
field_summary summarize(const nlh::nonlocal::grid2d& g, const std::vector<double>& u);

/// Discrete maximum principle of pure diffusion with a zero collar: the
/// maximum and the total have not grown since `before`, and the field
/// stays non-negative.
bool diffusion_monotone(const field_summary& before, const field_summary& after);

/// Largest deviation of the interior field from its images under the two
/// axis reflections and the transpose, relative to max |u|.
double symmetry_defect(const nlh::nonlocal::grid2d& g, const std::vector<double>& u);

/// Service outcome: every job finished OK and none was shed.
bool all_jobs_ok(std::uint64_t jobs, std::uint64_t ok, std::uint64_t shed);

/// The tracer kept every event it was handed.
bool no_dropped_events(std::uint64_t dropped);

}  // namespace pb::checks
