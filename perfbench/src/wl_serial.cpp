///
/// \file wl_serial.cpp
/// \brief `serial_manufactured`: the single-threaded baseline through the
/// api facade. A round is one forward-Euler solve of the manufactured
/// problem from its initial condition; the unit of work is one step.
///

#include <cstdio>
#include <memory>

#include "checks.hpp"
#include "nonlocal/serial_solver.hpp"
#include "trace_ledger.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr int kN = 192;
constexpr int kEps = 8;  // the paper's epsilon = 8h
constexpr int kSteps = 1000;
constexpr double kNominalRound_s = 3.5;  // one round on the reference host

double gauge(const nlh::obs::metrics_snapshot& s, const std::string& name) {
  for (const auto& [k, v] : s.gauges)
    if (k == name) return v;
  return 0.0;
}

std::uint64_t counter(const nlh::obs::metrics_snapshot& s, const std::string& name) {
  for (const auto& [k, v] : s.counters)
    if (k == name) return v;
  return 0;
}

}  // namespace

result run_serial_manufactured(const options& o) {
  result r;
  rng g(o.seed);
  nlh::api::session_options opt;
  opt.scenario = "manufactured";
  opt.mode = nlh::api::execution_mode::serial;
  opt.n = kN;
  opt.epsilon_factor = kEps;
  opt.conductivity = g.uniform(0.9, 1.1);
  opt.num_steps = kSteps;

  auto sess = std::make_unique<nlh::api::session>(opt);
  const double dt = sess->solver().dt();
  const double setup_s = seconds_since(process_start());

  std::vector<double> round_s, traced_round_s, lat;
  std::vector<double> first_field;
  double first_error = 0.0;
  trace_ledger led;
  double kernel_s = 0.0;
  double kernel_dps = 0.0;
  run_rounds(o, kNominalRound_s, [&](bool traced) {
    if (traced) begin_tracing(1 << 14);
    if (!sess) sess = std::make_unique<nlh::api::session>(opt);
    auto& h = sess->solver();
    const auto t0 = clock::now();
    for (int s = 0; s < kSteps; ++s) {
      const auto ts = clock::now();
      h.step();
      if (!traced) lat.push_back(seconds_since(ts));
    }
    (traced ? traced_round_s : round_s).push_back(seconds_since(t0));
    r.attempted += kSteps;
    std::fprintf(stderr, "round%s: %.3f s\n", traced ? " (traced)" : "",
                 (traced ? traced_round_s : round_s).back());

    const auto field = h.field();
    if (first_field.empty()) {
      first_field = field;
      first_error = h.error_vs_exact();
    } else {
      r.check(checks::bitwise_equal(field, first_field),
              traced ? "traced round's final field differs from the untraced one"
                     : "a repeated round's final field differs from the first");
    }
    if (traced) {
      const auto snap = h.metrics_snapshot();
      const auto dps = counter(snap, "kernel/dps");
      const double mdps = gauge(snap, "kernel/mdps");
      kernel_dps += static_cast<double>(dps);
      kernel_s += mdps > 0.0 ? static_cast<double>(dps) / (mdps * 1e6) : 0.0;
    }
    sess.reset();
    if (traced) {
      end_tracing();
      led.merge(collect_trace());
    }
  });

  // Forward Euler must meet its a-priori error bound, and halving dt to the
  // same final time must halve the error.
  const double t_final = kSteps * dt;
  const double bound = checks::euler_error_bound(dt, t_final);
  r.check(checks::within(first_error, bound),
          "max-relative error " + std::to_string(first_error) +
              " exceeds the forward-Euler bound " + std::to_string(bound));
  {
    auto half = opt;
    half.dt = dt / 2;
    nlh::api::session s(half);
    s.solver().run(2 * kSteps);
    const double err_half = s.solver().error_vs_exact();
    r.check(checks::halving_ratio_ok(first_error, err_half),
            "halving dt changed the error by " + std::to_string(first_error / err_half) +
                "x, not 2 +- 0.1");
  }

  if (!o.trace) {
    add_end_to_end(r, setup_s, round_s, lat);
    return r;
  }

  r.check(checks::no_dropped_events(led.dropped), "the tracer dropped events");
  const double steps = static_cast<double>(traced_round_s.size()) * kSteps;
  nlh::nonlocal::solver_config cfg;
  cfg.n = kN;
  cfg.epsilon_factor = kEps;
  cfg.conductivity = opt.conductivity;
  const nlh::nonlocal::serial_solver ref(cfg);
  const auto& grid = ref.grid();
  const double standalone =
      standalone_mdps(ref.kernel_plan(), ref.scaling_constant(), grid.stride(),
                      grid.ghost(), {{0, kN, 0, kN}}, 0.3);
  const double insitu = kernel_s > 0.0 ? kernel_dps / kernel_s / 1e6 : 0.0;
  r.add("kernel.seconds_per_step", kernel_s / steps, "s");
  r.add("kernel.dps_per_step", kernel_dps / steps, "count");
  r.add("kernel.insitu_mdps", insitu, "MDPS");
  r.add("kernel.standalone_mdps", standalone, "MDPS");
  r.add("kernel.standalone_grid_mdps", standalone, "MDPS");
  r.add("kernel.insitu_ratio", insitu / standalone, "ratio");
  r.add("kernel.fma_per_dp", static_cast<double>(ref.kernel_plan().size()), "count");
  r.add("source.seconds_per_step", (led.sec("api/step") - kernel_s) / steps, "s");

  begin_tracing(1 << 14);
  const auto api = probe_api(opt, 50);
  end_tracing();
  r.add("api.session_build_s", api.session_build_s, "s");
  r.add("api.step_overhead_s", api.step_overhead_s, "s");
  r.add("obs.trace_overhead_ratio", median(traced_round_s) / median(round_s), "ratio");
  r.add("obs.events_per_step", static_cast<double>(led.events) / steps, "count");
  r.add("obs.dropped_events", static_cast<double>(led.dropped), "count");
  return r;
}

}  // namespace pb
