#pragma once
///
/// \file workloads.hpp
/// \brief The four benchmark workloads and the probes they share.
///
/// Every workload follows one shape: a cold set-up timed from process
/// start (`setup_s`), then whole rounds of the same operations until
/// `--seconds` have passed, then correctness checks on the outputs. With
/// `--trace 0` rounds run untraced and the end-to-end metrics are
/// reported; with `--trace 1` untraced and traced rounds alternate, and
/// the per-layer metrics come from the traced ones.
///

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "common.hpp"
#include "nonlocal/grid2d.hpp"
#include "nonlocal/kernel/stencil_plan.hpp"
#include "nonlocal/nonlocal_operator.hpp"
#include "partition/graph.hpp"

namespace pb {

result run_serial_manufactured(const options& o);
result run_dist_pulse(const options& o);
result run_dist_skew_rebalance(const options& o);
result run_service_mix(const options& o);

/// Perturb each check's input and confirm it reports a failure; returns
/// the number of checks that did not.
int run_selftest();

/// Run `round(traced)` in whole rounds: as many as `o.seconds` holds at the
/// workload's nominal round time on the reference host (4-vCPU Xeon,
/// README.md), at least one. With `--trace 1` rounds alternate untraced /
/// traced, starting untraced, and at least one of each runs. The count
/// depends on `--seconds` alone, never on how fast rounds go: every run of
/// a given length does the same work, so `peak_rss_mib` compares like with
/// like across commits even though the process keeps memory for every pool
/// thread it ever started.
template <class F>
void run_rounds(const options& o, double nominal_round_s, F&& round) {
  const long n = std::max(o.trace ? 2L : 1L, std::lround(o.seconds / nominal_round_s));
  for (long i = 0; i < n; ++i) round(o.trace && i % 2 == 1);
}

// ----------------------------------------------------------------- probes --

/// Million DP updates per second of `apply_nonlocal_operator_raw` alone,
/// cycling over `rects` of a padded block (`stride`, `ghost`) filled with
/// seeded values, for at least `min_seconds`.
double standalone_mdps(const nlh::nonlocal::stencil_plan& plan, double c, int stride,
                       int ghost, const std::vector<nlh::nonlocal::dp_rect>& rects,
                       double min_seconds);

/// The api layer seen from outside: median session construction (up to a
/// ready solver) over a few builds, and the mean per-step time the handle
/// adds around its solver. Needs tracing on; clears the tracer.
struct api_probe {
  double session_build_s = 0.0;
  double step_overhead_s = 0.0;
};
api_probe probe_api(const nlh::api::session_options& opt, int steps);

/// The SD dual graph of an n x n mesh cut into sd_grid^2 SDs.
nlh::partition::graph mesh_dual(int n, int sd_grid, int eps);

/// Latency and time-to-solution of the untraced rounds, in the shape every
/// workload reports as its end-to-end metrics.
void add_end_to_end(result& r, double setup_s, const std::vector<double>& round_s,
                    const std::vector<double>& latencies);

}  // namespace pb
