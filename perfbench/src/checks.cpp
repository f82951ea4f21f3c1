#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace pb::checks {

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

double euler_error_bound(double dt, double t_final) {
  const double pi = 3.14159265358979323846;
  const double c = std::abs(std::cos(2.0 * pi * t_final));
  return c > 0.0 ? 2.0 * pi * pi * dt * t_final / c : 0.0;
}

bool within(double value, double bound) { return std::isfinite(value) && value <= bound; }

bool halving_ratio_ok(double err_dt, double err_half) {
  if (!(err_half > 0.0) || !std::isfinite(err_dt)) return false;
  return std::abs(err_dt / err_half - 2.0) <= 0.1;
}

field_summary summarize(const nlh::nonlocal::grid2d& g, const std::vector<double>& u) {
  field_summary s;
  s.max = -INFINITY;
  s.min = INFINITY;
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j) {
      const double v = u[g.flat(i, j)];
      s.max = std::max(s.max, v);
      s.min = std::min(s.min, v);
      s.sum += v;
    }
  return s;
}

bool diffusion_monotone(const field_summary& before, const field_summary& after) {
  return after.max <= before.max && after.sum <= before.sum && after.min >= 0.0;
}

double symmetry_defect(const nlh::nonlocal::grid2d& g, const std::vector<double>& u) {
  const int n = g.n();
  double peak = 0.0;
  double worst = 0.0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      const double v = u[g.flat(i, j)];
      peak = std::max(peak, std::abs(v));
      worst = std::max({worst, std::abs(v - u[g.flat(n - 1 - i, j)]),
                        std::abs(v - u[g.flat(i, n - 1 - j)]),
                        std::abs(v - u[g.flat(j, i)])});
    }
  return peak > 0.0 ? worst / peak : worst;
}

bool all_jobs_ok(std::uint64_t jobs, std::uint64_t ok, std::uint64_t shed) {
  return jobs > 0 && ok == jobs && shed == 0;
}

bool no_dropped_events(std::uint64_t dropped) { return dropped == 0; }

}  // namespace pb::checks
