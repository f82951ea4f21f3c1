///
/// \file wl_dist.cpp
/// \brief The two distributed workloads, driven through `dist::dist_solver`
/// directly so the checkpoint chain and the solver's own counters are in
/// reach:
///
/// - `dist_pulse`: zero-source gaussian pulse, 8x8 SDs on 2 localities x 2
///   threads, an incremental checkpoint every 100 steps. The kernel on
///   SD-shaped rects, the ghost exchange and task scheduling do the work.
/// - `dist_skew_rebalance`: the manufactured problem from the Fig. 14 start
///   (locality 0 owns all but one SD per other locality) with live
///   Algorithm 1 rebalancing, 4 localities x 1 thread.
///
/// A round is one solve from the initial condition on a freshly built
/// solver (the first round uses the one built during set-up); the unit of
/// work is one step.
///

#include <algorithm>
#include <cstdio>
#include <memory>

#include "balance/policy.hpp"
#include "checks.hpp"
#include "dist/dist_solver.hpp"
#include "nonlocal/error.hpp"
#include "nonlocal/serial_solver.hpp"
#include "partition/metrics.hpp"
#include "partition/multilevel.hpp"
#include "partition/partitioner.hpp"
#include "trace_ledger.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using nlh::dist::dist_solver;

constexpr int kN = 192;
constexpr int kSdGrid = 8;
constexpr std::size_t kTraceRing = 1 << 18;  // events per traced worker thread

/// Interior DPs of a padded field, row-major: the layout-independent view
/// the bitwise comparisons use.
std::vector<double> interior(const nlh::nonlocal::grid2d& g, const std::vector<double>& u) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(g.n()) * g.n());
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j) out.push_back(u[g.flat(i, j)]);
  return out;
}

/// Solver counters summed over the traced rounds.
struct dist_tally {
  double steps = 0.0;
  double kernel_s = 0.0;
  double kernel_dps = 0.0;
  double messages = 0.0;
  double early = 0.0;
  double wait_s = 0.0;
  double ghost_bytes = 0.0;
  double plan_compiles = 0.0;
  int rounds = 0;

  void add(const dist_solver& s, int steps_done) {
    const auto ks = s.kernel_stats();
    const auto st = s.stats();
    steps += steps_done;
    kernel_s += ks.seconds;
    kernel_dps += static_cast<double>(ks.dps);
    messages += static_cast<double>(st.messages);
    early += static_cast<double>(st.interior_early + st.strips_early);
    wait_s += st.wait_seconds;
    ghost_bytes += static_cast<double>(s.ghost_bytes());
    plan_compiles += static_cast<double>(s.plan_compiles());
    ++rounds;
  }
};

/// The rect shapes one step of `s` executes: per SD the case-2 interior
/// plus the case-1 strips of the per-direction schedule.
std::vector<nlh::nonlocal::dp_rect> step_rects(const dist_solver& s) {
  std::vector<nlh::nonlocal::dp_rect> rects;
  const auto& t = s.sd_tiling();
  for (int sd = 0; sd < t.num_sds(); ++sd) {
    const auto split = nlh::dist::compute_case_split(t, sd, s.owners().raw());
    if (!split.interior.empty()) rects.push_back(split.interior);
    for (const auto& st : nlh::dist::compute_fine_strips(t, sd, s.owners().raw()))
      rects.push_back(st.rect);
  }
  return rects;
}

/// Standalone kernel rates with `s`'s plan: over the rect shapes one of its
/// steps executes, and over the whole grid.
struct standalone_rates {
  double shapes_mdps = 0.0;
  double grid_mdps = 0.0;
  double fma_per_dp = 0.0;
};

standalone_rates measure_standalone(const dist_solver& s) {
  const auto& plan = s.kernel_plan();
  const auto& tl = s.sd_tiling();
  const auto& g = s.grid();
  standalone_rates out;
  out.shapes_mdps = standalone_mdps(plan, s.scaling_constant(), tl.sd_size() + 2 * tl.ghost(),
                                    tl.ghost(), step_rects(s), 0.3);
  out.grid_mdps = standalone_mdps(plan, s.scaling_constant(), g.stride(), g.ghost(),
                                  {{0, g.n(), 0, g.n()}}, 0.3);
  out.fma_per_dp = static_cast<double>(plan.size());
  return out;
}

/// Per-layer metrics of the kernel, source, dist, net and amt layers from
/// the traced rounds.
void add_dist_layers(result& r, const trace_ledger& led, const dist_tally& t,
                     const standalone_rates& alone) {
  const double steps = t.steps;
  const double standalone = alone.shapes_mdps;
  const double insitu = t.kernel_s > 0.0 ? t.kernel_dps / t.kernel_s / 1e6 : 0.0;
  r.add("kernel.seconds_per_step", t.kernel_s / steps, "s");
  r.add("kernel.dps_per_step", t.kernel_dps / steps, "count");
  r.add("kernel.insitu_mdps", insitu, "MDPS");
  r.add("kernel.standalone_mdps", standalone, "MDPS");
  r.add("kernel.standalone_grid_mdps", alone.grid_mdps, "MDPS");
  r.add("kernel.insitu_ratio", insitu / standalone, "ratio");
  r.add("kernel.fma_per_dp", alone.fma_per_dp, "count");

  const double compute_s = led.sec("dist/interior") + led.sec("dist/strip");
  r.add("source.seconds_per_step",
        (led.sec("dist/aux") + compute_s - t.kernel_s) / steps, "s");

  r.add("dist.interior_s_per_step", led.sec("dist/interior") / steps, "s");
  r.add("dist.strip_s_per_step", led.sec("dist/strip") / steps, "s");
  r.add("dist.aux_s_per_step", led.sec("dist/aux") / steps, "s");
  r.add("dist.drain_wait_s_per_step", t.wait_s / steps, "s");
  r.add("dist.tasks_per_step", static_cast<double>(led.cnt("amt/task")) / steps, "count");
  r.add("dist.early_tasks_per_step", t.early / steps, "count");
  r.add("dist.sched_overhead_s_per_step", led.task_self_s / steps, "s");
  int workers = 0;
  for (const auto& [grp, n] : led.group_threads) workers += n;
  const double step_wall = led.sec("dist/step");
  r.add("dist.idle_s_per_step", (workers * step_wall - led.sec("amt/task")) / steps, "s");
  r.add("dist.plan_compiles", t.plan_compiles / t.rounds, "count");

  r.add("net.messages_per_step", t.messages / steps, "count");
  r.add("net.ghost_bytes_per_step", t.ghost_bytes / steps, "B");
  r.add("net.pack_send_s_per_step", led.sec("dist/pack_send") / steps, "s");
  r.add("net.unpack_s_per_step", led.sec("dist/unpack") / steps, "s");

  double fmax = 0.0;
  double fmin = 1.0;
  for (const auto& [grp, busy] : led.group_task_s) {
    const auto it = led.group_threads.find(grp);
    if (it == led.group_threads.end() || step_wall <= 0.0) continue;
    const double f = busy / (it->second * step_wall);
    fmax = std::max(fmax, f);
    fmin = std::min(fmin, f);
  }
  r.add("amt.busy_fraction_max", fmax, "ratio");
  r.add("amt.busy_fraction_min", fmin, "ratio");
  r.add("amt.critical_path_s_per_step", led.critical_path_s / steps, "s");
}

/// Trace-side checks and the obs-layer metrics shared by both workloads.
void add_obs_layer(result& r, const trace_ledger& led, const dist_tally& t,
                   const std::vector<double>& traced_round_s,
                   const std::vector<double>& round_s) {
  r.check(checks::no_dropped_events(led.dropped), "the tracer dropped events");
  // Every kernel call runs inside a dist/interior or dist/strip span, so
  // the span time bounds the kernel time the solver counts on its own.
  r.check(led.sec("dist/interior") + led.sec("dist/strip") >= t.kernel_s,
          "dist/interior + dist/strip span time is below kernel_stats().seconds");
  r.add("obs.trace_overhead_ratio", median(traced_round_s) / median(round_s), "ratio");
  r.add("obs.events_per_step", static_cast<double>(led.events) / t.steps, "count");
  r.add("obs.dropped_events", static_cast<double>(led.dropped), "count");
}

void add_partition_layer(result& r, const nlh::partition::graph& dual,
                         const std::vector<int>& part, int k, double seconds) {
  r.add("partition.seconds", seconds, "s");
  r.add("partition.edge_cut", nlh::partition::edge_cut(dual, part), "DPs");
  r.add("partition.balance", nlh::partition::balance_factor(dual, part, k), "ratio");
}

}  // namespace

// -------------------------------------------------------------- dist_pulse --

result run_dist_pulse(const options& o) {
  constexpr int kEps = 8;
  constexpr int kNodes = 2;
  constexpr int kThreads = 2;
  constexpr int kSteps = 1000;
  constexpr int kCkptEvery = 100;
  constexpr int kTailSteps = 20;  // stepped after the restore check
  constexpr double kNominalRound_s = 4.5;  // one round on the reference host

  result r;
  rng g(o.seed);
  const double amplitude = g.uniform(0.5, 2.0);
  const double sigma = g.uniform(0.08, 0.12);
  const auto scn = std::make_shared<const nlh::api::gaussian_pulse_scenario>(
      0.5, 0.5, sigma, amplitude);

  nlh::dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = kSdGrid;
  cfg.sd_size = kN / kSdGrid;
  cfg.epsilon_factor = kEps;
  cfg.threads_per_locality = kThreads;

  const auto tp = clock::now();
  const auto dual = mesh_dual(kN, kSdGrid, kEps);
  nlh::partition::partition_options popt;
  popt.k = kNodes;
  const auto part = nlh::partition::multilevel_partition(dual, popt);
  const double partition_s = seconds_since(tp);
  const nlh::dist::tiling til(kSdGrid, kSdGrid, kN / kSdGrid, kEps);
  const auto own = nlh::dist::ownership_map::from_partition(til, kNodes, part);
  auto make = [&] {
    auto s = std::make_unique<dist_solver>(cfg, own, scn);
    s->set_initial_condition();
    s->plan();
    return s;
  };
  auto solver = make();
  const double setup_s = seconds_since(process_start());
  const auto grid = solver->grid();

  std::vector<double> round_s, traced_round_s, lat, ckpt_s, blob_bytes;
  std::vector<double> first_field;
  double compression = 0.0;
  trace_ledger led;
  dist_tally tally;
  standalone_rates alone;
  // The last untraced round's solver and checkpoint chain, for the restore check.
  std::unique_ptr<dist_solver> kept;
  nlh::net::byte_buffer anchor_blob, last_blob;

  run_rounds(o, kNominalRound_s, [&](bool traced) {
    if (traced) begin_tracing(kTraceRing);
    if (!solver) solver = make();
    nlh::net::byte_buffer first, last;
    auto prev = checks::summarize(grid, solver->gather());
    double paused = 0.0;
    const auto t0 = clock::now();
    for (int s = 1; s <= kSteps; ++s) {
      const auto ts = clock::now();
      solver->step();
      if (!traced) lat.push_back(seconds_since(ts));
      if (s % kCkptEvery != 0) continue;
      const auto tc = clock::now();
      auto blob = solver->checkpoint();
      if (traced) ckpt_s.push_back(seconds_since(tc));
      ++r.attempted;
      // The monotonicity check reads the field; its time is not the round's.
      const auto tcheck = clock::now();
      if (traced) blob_bytes.push_back(static_cast<double>(blob.size()));
      const auto now = checks::summarize(grid, solver->gather());
      r.check(checks::diffusion_monotone(prev, now),
              "checkpoint at step " + std::to_string(s) +
                  ": max or sum of u grew, or u went negative");
      prev = now;
      (first.empty() ? first : last) = std::move(blob);
      paused += seconds_since(tcheck);
    }
    (traced ? traced_round_s : round_s).push_back(seconds_since(t0) - paused);
    r.attempted += kSteps;

    r.check(solver->kernel_stats().dps ==
                static_cast<std::uint64_t>(kN) * kN * static_cast<std::uint64_t>(kSteps),
            "kernel_stats().dps differs from n^2 x steps");
    const auto field = interior(grid, solver->gather());
    if (first_field.empty()) {
      first_field = field;
    } else {
      r.check(checks::bitwise_equal(field, first_field),
              traced ? "traced round's final field differs from the untraced one"
                     : "a repeated round's final field differs from the first");
    }
    if (traced) {
      tally.add(*solver, kSteps);
      nlh::obs::metrics_snapshot snap;
      solver->metrics_into(snap);
      for (const auto& [k, v] : snap.gauges)
        if (k == "dist/ckpt/compression_ratio") compression = v;
      alone = measure_standalone(*solver);
      solver.reset();  // joins the pools: every span is closed
      end_tracing();
      led.merge(collect_trace(&own.raw()));
    } else {
      kept = std::move(solver);
      anchor_blob = std::move(first);
      last_blob = std::move(last);
    }
  });

  // Reference: the serial solver on the same problem must agree bitwise.
  nlh::nonlocal::solver_config scfg;
  scfg.n = kN;
  scfg.epsilon_factor = kEps;
  nlh::nonlocal::serial_solver ref(scfg, scn);
  ref.set_initial_condition();
  for (int k = 0; k < kSteps; ++k) ref.step(k);
  r.check(checks::bitwise_equal(first_field, interior(grid, ref.field())),
          "final field differs from the serial_solver reference");
  const double asym = checks::symmetry_defect(grid, ref.field());
  r.check(asym <= 1e-12, "field is not symmetric (defect " + std::to_string(asym) + ")");

  // A fresh solver restored from the chain (anchor, then the last delta)
  // and the running solver must stay bitwise equal for more steps.
  std::vector<double> restore_s;
  {
    auto fresh = make();
    for (const auto* blob : {&anchor_blob, &last_blob}) {
      const auto tr = clock::now();
      fresh->restore(*blob);
      restore_s.push_back(seconds_since(tr));
      ++r.attempted;
    }
    fresh->run(kTailSteps);
    kept->run(kTailSteps);
    r.attempted += 2 * kTailSteps;
    r.check(checks::bitwise_equal(fresh->gather(), kept->gather()),
            "a solver restored from the checkpoint chain diverged from the running one");
  }

  if (!o.trace) {
    add_end_to_end(r, setup_s, round_s, lat);
    return r;
  }
  add_dist_layers(r, led, tally, alone);
  add_partition_layer(r, dual, part, kNodes, partition_s);
  r.add("ckpt.checkpoint_s", median(ckpt_s), "s");
  r.add("ckpt.restore_s", median(restore_s), "s");
  r.add("ckpt.bytes_encoded", median(blob_bytes), "B");
  r.add("ckpt.compression_ratio", compression, "ratio");

  nlh::api::session_options api_opt;
  api_opt.custom_scenario = scn;
  api_opt.mode = nlh::api::execution_mode::distributed;
  api_opt.n = kN;
  api_opt.epsilon_factor = kEps;
  api_opt.sd_grid = kSdGrid;
  api_opt.nodes = kNodes;
  api_opt.threads_per_locality = kThreads;
  begin_tracing(kTraceRing);
  const auto api = probe_api(api_opt, 50);
  end_tracing();
  r.add("api.session_build_s", api.session_build_s, "s");
  r.add("api.step_overhead_s", api.step_overhead_s, "s");
  add_obs_layer(r, led, tally, traced_round_s, round_s);
  return r;
}

// ----------------------------------------------------- dist_skew_rebalance --

result run_dist_skew_rebalance(const options& o) {
  constexpr int kEps = 4;
  constexpr int kNodes = 4;
  constexpr int kSteps = 400;
  constexpr int kStartMax = kSdGrid * kSdGrid - (kNodes - 1);  // 61
  constexpr double kNominalRound_s = 2.0;  // one round on the reference host

  result r;
  rng g(o.seed);
  nlh::dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = kSdGrid;
  cfg.sd_size = kN / kSdGrid;
  cfg.epsilon_factor = kEps;
  cfg.conductivity = g.uniform(0.9, 1.1);
  cfg.threads_per_locality = 1;
  cfg.rebalance.enabled = true;  // the default policy and measured sampler

  // Fig. 14 start: localities 1..3 own one corner SD each, locality 0 the rest.
  const nlh::dist::tiling til(kSdGrid, kSdGrid, kN / kSdGrid, kEps);
  std::vector<int> owner(static_cast<std::size_t>(til.num_sds()), 0);
  owner[static_cast<std::size_t>(til.sd_at(0, kSdGrid - 1))] = 1;
  owner[static_cast<std::size_t>(til.sd_at(kSdGrid - 1, 0))] = 2;
  owner[static_cast<std::size_t>(til.sd_at(kSdGrid - 1, kSdGrid - 1))] = 3;
  const nlh::dist::ownership_map own(til, kNodes, owner);
  auto make = [&] {
    auto s = std::make_unique<dist_solver>(cfg, own);
    s->set_initial_condition();
    s->plan();
    return s;
  };
  auto solver = make();
  const double setup_s = seconds_since(process_start());
  const auto grid = solver->grid();
  const double dt = solver->dt();

  std::vector<double> round_s, traced_round_s, lat;
  std::vector<std::vector<double>> fields;
  std::vector<double> epochs, moves, max_over_ideal;
  trace_ledger led;
  dist_tally tally;
  standalone_rates alone;  // on the last traced round's final ownership
  const double ideal = static_cast<double>(til.num_sds()) / kNodes;

  run_rounds(o, kNominalRound_s, [&](bool traced) {
    if (traced) begin_tracing(kTraceRing);
    if (!solver) solver = make();
    const auto t0 = clock::now();
    for (int s = 0; s < kSteps; ++s) {
      const auto ts = clock::now();
      solver->step();
      if (!traced) lat.push_back(seconds_since(ts));
    }
    (traced ? traced_round_s : round_s).push_back(seconds_since(t0));
    r.attempted += kSteps;

    const auto counts = solver->owners().sd_counts();
    int total = 0;
    for (int c : counts) total += c;
    const int largest = *std::max_element(counts.begin(), counts.end());
    r.check(total == til.num_sds(), "SD counts do not sum to the SD total");
    r.check(largest < kStartMax, "the largest SD count did not drop below its start");
    fields.push_back(interior(grid, solver->gather()));
    const auto st = solver->rebalance_stats();
    std::fprintf(stderr, "round %zu%s: %.3f s, epochs %llu of %llu checks, moves %llu, counts",
                 fields.size(), traced ? " (traced)" : "",
                 (traced ? traced_round_s : round_s).back(),
                 static_cast<unsigned long long>(st.epochs),
                 static_cast<unsigned long long>(st.checks),
                 static_cast<unsigned long long>(st.moves));
    for (int c : counts) std::fprintf(stderr, " %d", c);
    std::fprintf(stderr, ", last imbalance %.2f\n", st.last_imbalance_before);
    if (traced) {
      tally.add(*solver, kSteps);
      epochs.push_back(static_cast<double>(st.epochs));
      moves.push_back(static_cast<double>(st.moves));
      max_over_ideal.push_back(largest / ideal);
      alone = measure_standalone(*solver);
      solver.reset();  // joins the pools: every span is closed
      end_tracing();
      led.merge(collect_trace(&owner));
    }
    solver.reset();
  });

  // Every round must match the serial reference bitwise, whatever the
  // migrations did, and meet forward Euler's error bound.
  nlh::nonlocal::solver_config scfg;
  scfg.n = kN;
  scfg.epsilon_factor = kEps;
  scfg.conductivity = cfg.conductivity;
  nlh::nonlocal::serial_solver ref(scfg);
  ref.set_initial_condition();
  for (int k = 0; k < kSteps; ++k) ref.step(k);
  const auto ref_field = interior(grid, ref.field());
  for (const auto& f : fields)
    r.check(checks::bitwise_equal(f, ref_field),
            "a round's final field differs from the serial reference");
  const double err =
      nlh::nonlocal::error_max_relative(grid, ref.exact_field(kSteps * dt), ref.field());
  const double bound = checks::euler_error_bound(dt, kSteps * dt);
  r.check(checks::within(err, bound), "max-relative error " + std::to_string(err) +
                                          " exceeds the forward-Euler bound " +
                                          std::to_string(bound));

  if (!o.trace) {
    add_end_to_end(r, setup_s, round_s, lat);
    return r;
  }
  add_dist_layers(r, led, tally, alone);
  r.add("balance.epochs", median(epochs), "count");
  r.add("balance.moves", median(moves), "count");
  r.add("balance.epoch_s", led.sec("balance/epoch") / tally.rounds, "s");
  r.add("balance.final_max_over_ideal", median(max_over_ideal), "ratio");
  // The start is prescribed, so no partitioner runs; report its shape.
  add_partition_layer(r, mesh_dual(kN, kSdGrid, kEps), owner, kNodes, 0.0);

  nlh::api::session_options api_opt;
  api_opt.scenario = "manufactured";
  api_opt.mode = nlh::api::execution_mode::distributed;
  api_opt.n = kN;
  api_opt.epsilon_factor = kEps;
  api_opt.conductivity = cfg.conductivity;
  api_opt.sd_grid = kSdGrid;
  api_opt.nodes = kNodes;
  api_opt.auto_rebalance = cfg.rebalance;
  begin_tracing(kTraceRing);
  const auto api = probe_api(api_opt, 50);
  end_tracing();
  r.add("api.session_build_s", api.session_build_s, "s");
  r.add("api.step_overhead_s", api.step_overhead_s, "s");
  add_obs_layer(r, led, tally, traced_round_s, round_s);
  return r;
}

}  // namespace pb
