#include <memory>

#include "nonlocal/serial_solver.hpp"
#include "partition/mesh_dual.hpp"
#include "trace_ledger.hpp"
#include "workloads.hpp"

namespace pb {

double standalone_mdps(const nlh::nonlocal::stencil_plan& plan, double c, int stride,
                       int ghost, const std::vector<nlh::nonlocal::dp_rect>& rects,
                       double min_seconds) {
  std::vector<double> u(static_cast<std::size_t>(stride) * stride);
  std::vector<double> out(u.size(), 0.0);
  rng g(7);
  for (auto& v : u) v = g.uniform(0.0, 1.0);
  double dps = 0.0;
  const auto t0 = clock::now();
  double elapsed = 0.0;
  do {
    for (const auto& r : rects) {
      nlh::nonlocal::apply_nonlocal_operator_raw(u.data(), out.data(), stride, ghost,
                                                 plan, c, r);
      dps += static_cast<double>(r.area());
    }
    elapsed = seconds_since(t0);
  } while (elapsed < min_seconds);
  return dps / elapsed / 1e6;
}

api_probe probe_api(const nlh::api::session_options& opt, int steps) {
  api_probe p;
  std::vector<double> builds;
  std::unique_ptr<nlh::api::session> s;
  for (int i = 0; i < 3; ++i) {
    s.reset();
    const auto t0 = clock::now();
    s = std::make_unique<nlh::api::session>(opt);
    s->solver();
    builds.push_back(seconds_since(t0));
  }
  p.session_build_s = median(builds);

  // The handle's own cost is its api/step span minus the solver step inside
  // it: the dist/step span when distributed, a directly timed serial step
  // of the same problem otherwise.
  collect_trace();
  s->solver().run(steps);
  s.reset();  // joins the solver's pools: every span is closed
  const auto led = collect_trace();
  double inner = led.sec("dist/step");
  if (opt.mode == nlh::api::execution_mode::serial) {
    nlh::nonlocal::solver_config cfg;
    cfg.n = opt.n;
    cfg.epsilon_factor = opt.epsilon_factor;
    cfg.conductivity = opt.conductivity;
    nlh::nonlocal::serial_solver direct(
        cfg, opt.custom_scenario ? opt.custom_scenario
                                 : nlh::api::make_scenario(opt.scenario));
    direct.set_initial_condition();
    const auto t0 = clock::now();
    for (int k = 0; k < steps; ++k) direct.step(k);
    inner = seconds_since(t0);
  }
  p.step_overhead_s = (led.sec("api/step") - inner) / steps;
  return p;
}

nlh::partition::graph mesh_dual(int n, int sd_grid, int eps) {
  nlh::partition::mesh_dual_options m;
  m.sd_rows = m.sd_cols = sd_grid;
  m.sd_size = n / sd_grid;
  m.ghost_width = eps;
  return nlh::partition::build_mesh_dual(m);
}

void add_end_to_end(result& r, double setup_s, const std::vector<double>& round_s,
                    const std::vector<double>& latencies) {
  r.add("setup_s", setup_s, "s");
  r.add("run_s", median(round_s), "s");
  r.add("latency_p50_s", quantile(latencies, 0.50), "s");
  r.add("latency_p95_s", quantile(latencies, 0.95), "s");
  r.add("peak_rss_mib", peak_rss_mib(), "MiB");
}

}  // namespace pb
