///
/// \file selftest.cpp
/// \brief `--selftest`: proves every correctness check can fail. Each check
/// first sees a genuine output of a tiny run (it must pass), then a
/// perturbed copy (it must report a failure): one ULP on one DP, an error
/// above tolerance, a broken dt-halving ratio, a grown maximum, a broken
/// symmetry, a shed job and a dropped trace event.
///

#include <cmath>
#include <cstdio>
#include <thread>

#include "checks.hpp"
#include "dist/dist_solver.hpp"
#include "nonlocal/error.hpp"
#include "nonlocal/serial_solver.hpp"
#include "obs/tracer.hpp"
#include "svc/service.hpp"
#include "trace_ledger.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

int g_missed = 0;

/// A check must accept the genuine input and reject the perturbed one.
void expect(const char* what, bool genuine_passes, bool perturbed_passes) {
  const bool ok = genuine_passes && !perturbed_passes;
  std::printf("selftest %-28s genuine %s, perturbed %s -> %s\n", what,
              genuine_passes ? "passes" : "FAILS", perturbed_passes ? "PASSES" : "fails",
              ok ? "ok" : "MISSED");
  if (!ok) ++g_missed;
}

nlh::nonlocal::serial_solver tiny_serial(double dt, std::shared_ptr<const nlh::api::scenario> scn,
                                         int steps) {
  nlh::nonlocal::solver_config cfg;
  cfg.n = 32;
  cfg.epsilon_factor = 2;
  cfg.dt = dt;
  nlh::nonlocal::serial_solver s(cfg, std::move(scn));
  s.set_initial_condition();
  for (int k = 0; k < steps; ++k) s.step(k);
  return s;
}

}  // namespace

int run_selftest() {
  g_missed = 0;
  const auto pulse = std::make_shared<const nlh::api::gaussian_pulse_scenario>();

  // Bitwise serial == distributed, and one ULP on one DP.
  {
    nlh::dist::dist_config cfg;
    cfg.sd_rows = cfg.sd_cols = 4;
    cfg.sd_size = 8;
    cfg.epsilon_factor = 2;
    const nlh::dist::tiling t(4, 4, 8, 2);
    std::vector<int> owner(16, 0);
    for (int sd = 8; sd < 16; ++sd) owner[static_cast<std::size_t>(sd)] = 1;
    nlh::dist::dist_solver d(cfg, nlh::dist::ownership_map(t, 2, owner), pulse);
    d.set_initial_condition();
    d.run(10);
    const auto s = tiny_serial(0.0, pulse, 10);
    auto dist_field = d.gather();
    const auto& g = s.grid();
    auto interior = [&g](const std::vector<double>& u) {
      std::vector<double> out;
      for (int i = 0; i < g.n(); ++i)
        for (int j = 0; j < g.n(); ++j) out.push_back(u[g.flat(i, j)]);
      return out;
    };
    const auto ref = interior(s.field());
    auto bumped = interior(dist_field);
    const bool genuine = checks::bitwise_equal(bumped, ref);
    bumped[100] = std::nextafter(bumped[100], INFINITY);
    expect("bitwise (1 ULP on 1 DP)", genuine, checks::bitwise_equal(bumped, ref));

    // Maximum principle and symmetry on the same pulse.
    const auto ic = checks::summarize(g, tiny_serial(0.0, pulse, 0).field());
    const auto now = checks::summarize(g, s.field());
    auto grown = now;
    grown.max = std::nextafter(ic.max, INFINITY);
    expect("diffusion monotone", checks::diffusion_monotone(ic, now),
           checks::diffusion_monotone(ic, grown));
    auto skewed = s.field();
    skewed[g.flat(15, 12)] *= 1.0 + 1e-9;  // near the peak: 1e-9 relative
    expect("symmetry 1e-12", checks::symmetry_defect(g, s.field()) <= 1e-12,
           checks::symmetry_defect(g, skewed) <= 1e-12);
  }

  // Error against the analytic solution, and the dt-halving ratio.
  {
    const auto coarse = tiny_serial(0.0, nullptr, 100);
    const double dt = coarse.dt();
    const auto fine = tiny_serial(dt / 2, nullptr, 200);
    const auto& g = coarse.grid();
    const double t_final = 100 * dt;
    const auto exact = coarse.exact_field(t_final);
    const double err = nlh::nonlocal::error_max_relative(g, exact, coarse.field());
    const double err_half = nlh::nonlocal::error_max_relative(g, exact, fine.field());
    const double bound = checks::euler_error_bound(dt, t_final);
    auto off = coarse.field();
    double peak = 0.0;
    for (double v : exact) peak = std::max(peak, std::abs(v));
    off[g.flat(7, 9)] += 2.0 * bound * peak;  // pushes the error past the bound
    expect("error within tolerance", checks::within(err, bound),
           checks::within(nlh::nonlocal::error_max_relative(g, exact, off), bound));
    expect("dt-halving ratio 2 +- 0.1", checks::halving_ratio_ok(err, err_half),
           checks::halving_ratio_ok(err, err_half * 1.5));
  }

  // A shed job: three jobs submitted at once by one tenant, first with room
  // for all of them, then capped at one in flight.
  {
    auto outcome = [](int max_in_flight) {
      nlh::svc::service_options so;
      so.pool_threads = 1;
      so.max_concurrent = 1;
      so.default_quota.max_in_flight = max_in_flight;
      nlh::svc::service_loop svc(so);
      nlh::svc::svc_job job;
      job.options.n = 16;
      job.options.epsilon_factor = 2;
      job.num_steps = 2;
      std::vector<nlh::amt::future<nlh::svc::svc_result>> futs;
      for (int i = 0; i < 3; ++i)
        futs.push_back(svc.submit("tenant", nlh::svc::qos_class::batch, job));
      std::uint64_t ok = 0;
      std::uint64_t shed = 0;
      for (auto& f : futs) {
        const auto res = f.get();
        ok += res.ok ? 1 : 0;
        shed += res.shed ? 1 : 0;
      }
      svc.wait_idle();
      return checks::all_jobs_ok(futs.size(), ok, shed);
    };
    expect("service: every job ok", outcome(8), outcome(1));
  }

  // A dropped trace event: a fresh thread records 64 spans into a ring that
  // holds them all, then into one of 16 events.
  {
    auto dropped = [](std::size_t ring) {
      begin_tracing(ring);
      std::thread([] {
        for (int i = 0; i < 64; ++i) NLH_TRACE_SPAN("selftest/span");
      }).join();
      end_tracing();
      return collect_trace().dropped;
    };
    expect("tracer: no dropped events", checks::no_dropped_events(dropped(1024)),
           checks::no_dropped_events(dropped(16)));
  }

  std::printf("selftest: %d check(s) missed a perturbation\n", g_missed);
  return g_missed;
}

}  // namespace pb
