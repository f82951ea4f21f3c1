///
/// \file wl_service.cpp
/// \brief `service_mix`: a closed loop of solver jobs through
/// `svc::service_loop`. A fixed number of jobs are outstanding; each is
/// replaced as its result arrives. A round is one fixed multiset of jobs
/// (serial and 2x1 distributed sessions of both scenarios at three sizes,
/// interactive:batch = 1:2) whose order and tenants come from the seed;
/// the unit of work is one job, timed from submission to its result.
///

#include <array>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "checks.hpp"
#include "obs/config.hpp"
#include "partition/metrics.hpp"
#include "partition/multilevel.hpp"
#include "svc/service.hpp"
#include "trace_ledger.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr int kSteps = 30;
constexpr double kNominalRound_s = 2.1;  // one round on the reference host
constexpr int kEps = 4;
constexpr int kSdGrid = 4;
constexpr int kTenants = 8;
constexpr int kOutstanding = 4;  // closed-loop clients
constexpr int kConcurrent = 2;   // service slots; a 2x1 job adds 2 pool threads

struct job_spec {
  nlh::svc::svc_job job;
  nlh::svc::qos_class cls = nlh::svc::qos_class::batch;
  std::string tenant;
};

/// One round's jobs: every (scenario, size, mode slot, class slot) once,
/// repeated, in a seeded order with seeded tenants. Three of four mode
/// slots are serial, one of three class slots interactive.
std::vector<job_spec> make_round(rng& g) {
  std::vector<job_spec> jobs;
  for (int rep = 0; rep < 3; ++rep)
    for (const char* scn : {"manufactured", "gaussian_pulse"})
      for (int n : {64, 96, 128})
        for (int mode = 0; mode < 4; ++mode)
          for (int cls = 0; cls < 3; ++cls) {
            job_spec j;
            auto& o = j.job.options;
            o.scenario = scn;
            o.n = n;
            o.epsilon_factor = kEps;
            if (mode == 0) {
              o.mode = nlh::api::execution_mode::distributed;
              o.sd_grid = kSdGrid;
              o.nodes = 2;
              o.threads_per_locality = 1;
            }
            j.job.num_steps = kSteps;
            j.cls = cls == 0 ? nlh::svc::qos_class::interactive : nlh::svc::qos_class::batch;
            jobs.push_back(std::move(j));
          }
  for (std::size_t i = jobs.size(); i > 1; --i) std::swap(jobs[i - 1], jobs[g.below(i)]);
  for (auto& j : jobs) j.tenant = "tenant-" + std::to_string(g.below(kTenants));
  return jobs;
}

/// Results handed from the service's threads to the client loop.
struct inbox {
  struct item {
    nlh::svc::svc_result res;
    double latency_s = 0.0;
  };
  std::mutex m;
  std::condition_variable cv;
  std::deque<item> q;

  // Notifies under the lock: once the client has popped the last item it
  // destroys the inbox, so the pusher must not touch it after unlocking.
  void push(item it) {
    std::lock_guard<std::mutex> lk(m);
    q.push_back(std::move(it));
    cv.notify_one();
  }
  item pop() {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [this] { return !q.empty(); });
    auto it = std::move(q.front());
    q.pop_front();
    return it;
  }
};

/// Returns once every worker of `pool` has finished the task it was
/// running: one blocking task per worker, released when all have started.
void quiesce(nlh::amt::thread_pool& pool) {
  std::mutex m;
  std::condition_variable cv;
  const unsigned n = pool.num_threads();
  unsigned arrived = 0;
  unsigned left = 0;
  for (unsigned i = 0; i < n; ++i)
    pool.post([&] {
      std::unique_lock<std::mutex> lk(m);
      ++arrived;
      cv.notify_all();
      cv.wait(lk, [&] { return arrived == n; });
      ++left;
      cv.notify_all();
    });
  std::unique_lock<std::mutex> lk(m);
  cv.wait(lk, [&] { return left == n; });
}

}  // namespace

result run_service_mix(const options& o) {
  result r;
  rng g(o.seed);
  const auto jobs = make_round(g);

  nlh::svc::service_options sopt;
  sopt.pool_threads = kConcurrent;
  sopt.max_concurrent = kConcurrent;
  // Quotas that shed and delay nothing: the loop measures the scheduler
  // and the sessions, not policing.
  sopt.default_quota.rate_per_second = 1e9;
  sopt.default_quota.burst = 1e9;
  sopt.default_quota.max_in_flight = kOutstanding;
  // A traced round's serial jobs and every job's stepping thread record on
  // the service's own workers, which start before any round: give them
  // rings that hold a whole traced round, and wait until both have started.
  if (o.trace) set_ring_capacity(1 << 18);
  auto svc = std::make_unique<nlh::svc::service_loop>(sopt);
  if (o.trace) {
    quiesce(svc->pool());
    set_ring_capacity(nlh::obs::config{}.ring_capacity);
  }
  const double setup_s = seconds_since(process_start());

  std::vector<double> round_s, traced_round_s, lat, queue_wait, exec;
  std::array<std::uint64_t, nlh::svc::qos_class_count> tally{};
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t submitted = 0;
  trace_ledger led;
  double traced_steps = 0.0;

  run_rounds(o, kNominalRound_s, [&](bool traced) {
    if (traced) begin_tracing(1 << 14);
    inbox box;
    std::size_t next = 0;
    auto submit = [&] {
      const auto& j = jobs[next++];
      const auto t_submit = clock::now();
      svc->submit(j.tenant, j.cls, j.job)
          .then([&box, t_submit](nlh::amt::future<nlh::svc::svc_result> f) {
            box.push({f.get(), seconds_since(t_submit)});
          });
      ++submitted;
    };
    const auto t0 = clock::now();
    for (int c = 0; c < kOutstanding; ++c) submit();
    for (std::size_t done = 0; done < jobs.size(); ++done) {
      auto it = box.pop();
      if (next < jobs.size()) submit();
      ++r.attempted;
      if (it.res.ok) {
        ++ok;
        ++tally[static_cast<std::size_t>(it.res.cls)];
      } else {
        ++r.failed;
      }
      if (it.res.shed) ++shed;
      r.check(!it.res.ok || it.res.metrics.steps == kSteps,
              "job " + it.res.label + " reported " + std::to_string(it.res.metrics.steps) +
                  " steps, not " + std::to_string(kSteps));
      if (!traced) {
        lat.push_back(it.latency_s);
      } else {
        queue_wait.push_back(it.res.queue_wait_seconds);
        exec.push_back(it.latency_s - it.res.queue_wait_seconds);
        traced_steps += it.res.metrics.steps;
      }
    }
    (traced ? traced_round_s : round_s).push_back(seconds_since(t0));
    svc->wait_idle();
    if (traced) {
      end_tracing();
      quiesce(svc->pool());  // the last jobs' task spans have closed
      led.merge(collect_trace());
    }
  });

  r.check(checks::all_jobs_ok(submitted, ok, shed), "a job failed or was shed");
  const auto st = svc->stats();
  for (int c = 0; c < nlh::svc::qos_class_count; ++c)
    r.check(st.per_class[static_cast<std::size_t>(c)].completed == tally[static_cast<std::size_t>(c)],
            std::string("service's completed count for class ") +
                nlh::svc::to_string(static_cast<nlh::svc::qos_class>(c)) +
                " differs from the client's tally");
  svc.reset();

  if (!o.trace) {
    add_end_to_end(r, setup_s, round_s, lat);
    return r;
  }
  r.check(checks::no_dropped_events(led.dropped), "the tracer dropped events");
  r.add("svc.queue_wait_p50_s", median(queue_wait), "s");
  r.add("svc.exec_p50_s", median(exec), "s");
  r.add("svc.jobs_per_s", static_cast<double>(jobs.size()) / median(traced_round_s), "1/s");

  // The partitioner as the 2x1 jobs use it, on the largest job's mesh.
  const auto dual = mesh_dual(128, kSdGrid, kEps);
  nlh::partition::partition_options popt;
  popt.k = 2;
  std::vector<double> part_s;
  nlh::partition::partition_vector part;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = clock::now();
    part = nlh::partition::multilevel_partition(dual, popt);
    part_s.push_back(seconds_since(t0));
  }
  r.add("partition.seconds", median(part_s), "s");
  r.add("partition.edge_cut", nlh::partition::edge_cut(dual, part), "DPs");
  r.add("partition.balance", nlh::partition::balance_factor(dual, part, 2), "ratio");

  // The api layer for a mid-sized serial manufactured job.
  nlh::api::session_options api_opt;
  api_opt.n = 96;
  api_opt.epsilon_factor = kEps;
  begin_tracing(1 << 14);
  const auto api = probe_api(api_opt, kSteps);
  end_tracing();
  r.add("api.session_build_s", api.session_build_s, "s");
  r.add("api.step_overhead_s", api.step_overhead_s, "s");
  r.add("obs.trace_overhead_ratio", median(traced_round_s) / median(round_s), "ratio");
  r.add("obs.events_per_step", static_cast<double>(led.events) / traced_steps, "count");
  r.add("obs.dropped_events", static_cast<double>(led.dropped), "count");
  return r;
}

}  // namespace pb
