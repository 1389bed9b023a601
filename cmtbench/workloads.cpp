#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <numbers>

#include "balance/scenarios.hpp"
#include "common.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "kernels/dispatch.hpp"
#include "mesh/faces.hpp"
#include "prof/callprof.hpp"
#include "prof/commprof.hpp"
#include "prof/timer.hpp"
#include "resilience/checkpoint_coordinator.hpp"
#include "util/rng.hpp"

namespace cmtbench {

namespace core = cmtbone::core;
namespace comm = cmtbone::comm;
namespace prof = cmtbone::prof;

namespace {

std::vector<Workload> make_workloads() {
  std::vector<Workload> all;
  {
    Workload w;
    w.name = "proxy_volume";
    core::Config& c = w.cfg;
    c.physics = core::Physics::kProxyAdvection;
    c.n = 10;
    c.ex = c.ey = c.ez = 6;
    c.px = c.py = c.pz = 1;
    w.ranks = 1;
    w.segment_steps = 20;
    w.linf_tol = 1e-4;
    w.drift_tol = 1e-12;
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "proxy_halo";
    core::Config& c = w.cfg;
    c.physics = core::Physics::kProxyAdvection;
    c.n = 4;
    c.ex = c.ey = c.ez = 16;
    c.px = 2;
    c.py = 2;
    c.pz = 1;
    w.ranks = 4;
    w.segment_steps = 20;
    w.linf_tol = 2e-2;
    w.drift_tol = 1e-12;
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "euler_particles";
    core::Config& c = w.cfg;
    c.physics = core::Physics::kEuler;
    c.euler_case = core::EulerCase::kSmoothWave;
    c.n = 6;
    c.ex = c.ey = c.ez = 8;
    c.px = 2;
    c.py = 1;
    c.pz = 1;
    c.threads_per_rank = 2;
    c.particles_per_rank = 1;  // enables the tracker; the cloud replaces it
    c.particle_coupling = 0.01;
    c.balance_interval = 10;
    w.ranks = 2;
    w.segment_steps = 60;
    w.particles = 40000;
    w.checkpoint_interval = 10;
    w.drift_tol = 1e-12;
    all.push_back(w);
  }
  for (Workload& w : all) {
    // Pinned explicitly so no environment knob can change what runs.
    w.cfg.integrator = core::TimeIntegrator::kRk3Ssp;
    w.cfg.face_backend = core::FaceBackend::kDirect;
    w.cfg.gs_method = cmtbone::gs::Method::kPairwise;
    w.cfg.overlap = false;
    w.cfg.use_dssum = true;
    w.cfg.periodic = true;
    if (w.cfg.threads_per_rank == 0) w.cfg.threads_per_rank = 1;
  }
  return all;
}

// Seeded smooth periodic profile: a sum of four Fourier modes with integer
// wavenumbers in [-2, 2] and amplitudes summing to 1, so |wave| <= 1.
struct Wave {
  struct Mode {
    double kx, ky, kz, amp, phase;
  };
  std::array<Mode, 4> modes{};

  explicit Wave(std::uint64_t seed) {
    cmtbone::util::SplitMix64 rng(seed ^ 0x5eedc0ffee15ull);
    double total = 0;
    for (Mode& m : modes) {
      const auto k = [&] { return double(int(rng.below(5)) - 2); };
      m.kx = k();
      m.ky = k();
      m.kz = k();
      if (m.kx == 0 && m.ky == 0 && m.kz == 0) m.kx = 1;
      m.amp = rng.uniform(0.5, 1.0);
      m.phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
      total += m.amp;
    }
    for (Mode& m : modes) m.amp /= total;
  }

  double operator()(double x, double y, double z) const {
    double v = 0;
    for (const Mode& m : modes) {
      v += m.amp * std::sin(2.0 * std::numbers::pi *
                                (m.kx * x + m.ky * y + m.kz * z) +
                            m.phase);
    }
    return v;
  }
};

// Initial condition at time 0 and, for the linear proxy, the exact
// solution at time t (the initial condition translated by velocity * t).
core::FieldFunction seeded_solution(const Workload& w, std::uint64_t seed,
                                    double t) {
  const Wave wave(seed);
  const auto v = w.cfg.velocity;
  if (w.cfg.physics == core::Physics::kEuler) {
    const double gamma = w.cfg.gamma;
    return [wave, v, gamma, t](double x, double y, double z, int f) {
      const double rho = 1.0 + 0.2 * wave(x - v[0] * t, y - v[1] * t,
                                          z - v[2] * t);
      switch (f) {
        case 0: return rho;
        case 1: return rho * v[0];
        case 2: return rho * v[1];
        case 3: return rho * v[2];
        default:
          return 1.0 / (gamma - 1.0) +
                 0.5 * rho * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
      }
    };
  }
  return [wave, v, t](double x, double y, double z, int f) {
    return (f + 1) * (1.0 + 0.5 * wave(x - v[0] * t, y - v[1] * t,
                                       z - v[2] * t));
  };
}

std::vector<cmtbone::particles::Particle> seeded_cloud(long long count,
                                                       std::uint64_t seed) {
  cmtbone::util::SplitMix64 rng(seed ^ 0xc1a55e7ull);
  cmtbone::balance::ClusterSpec spec;
  spec.count = count;
  // The cluster sits inside rank 0's half of the x-split box for every
  // seed, so the imbalance the balancer corrects is the same shape.
  spec.center = {rng.uniform(0.22, 0.28), rng.uniform(0.4, 0.6),
                 rng.uniform(0.4, 0.6)};
  spec.radius = 0.2;
  spec.seed = rng.next();
  return cmtbone::balance::clustered_cloud(spec);
}

using Flat = std::map<std::string, prof::CallProfile::FlatEntry>;

Flat flat_profile() {
  Flat out;
  for (auto& e : prof::thread_profile().flat()) out[e.name] = e;
  return out;
}

// Per-rank traced data, each slot written only by its own rank thread.
struct RankTrace {
  double setup_gs_s = 0;
  Flat seg_start, seg_end;
  std::map<std::string, prof::CommStat> comm_start, comm_end;
  double busy_s = 0;
  long long moves_start = 0, moves = 0;
  long long resident_particles = 0;
  std::vector<double> checkpoint_bytes;  // per committed epoch
};

double region_delta(const RankTrace& t, const std::string& name,
                    bool exclusive = false) {
  double end = 0, start = 0;
  if (auto it = t.seg_end.find(name); it != t.seg_end.end()) {
    end = exclusive ? it->second.exclusive : it->second.inclusive;
  }
  if (auto it = t.seg_start.find(name); it != t.seg_start.end()) {
    start = exclusive ? it->second.exclusive : it->second.inclusive;
  }
  return end - start;
}

long region_calls(const RankTrace& t, const std::string& name) {
  long end = 0, start = 0;
  if (auto it = t.seg_end.find(name); it != t.seg_end.end()) {
    end = it->second.calls;
  }
  if (auto it = t.seg_start.find(name); it != t.seg_start.end()) {
    start = it->second.calls;
  }
  return end - start;
}

bool is_send(const std::string& site) {
  for (const char* op : {"MPI_Send", "MPI_Isend", "MPI_Sendrecv"}) {
    const std::string s(op);
    if (site == s || (site.size() > s.size() &&
                      site.compare(site.size() - s.size() - 1, s.size() + 1,
                                   "/" + s) == 0)) {
      return true;
    }
  }
  return false;
}

constexpr const char* kFenceSite = "bench.fence";

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

long long working_set_bytes(const Workload& w) {
  const long long n = w.cfg.n;
  const long long nel = 1LL * w.cfg.ex * w.cfg.ey * w.cfg.ez;
  const long long pts = n * n * n * nel;
  const long long nf = w.cfg.nfields();
  // u, u1, u2, rhs, flux per field; gradient scratch and multiplicity; the
  // particle carrier velocity; my/neighbor face arrays.
  long long doubles = 5 * nf * pts + 2 * pts;
  if (w.particles > 0) doubles += 3 * pts;
  doubles += 2 * nf * cmtbone::mesh::face_array_size(int(n), int(nel));
  return 8 * doubles +
         w.particles * (long long)sizeof(cmtbone::particles::Particle);
}

SolveResult run_solve(const Workload& w, const SolveOptions& opt) {
  SolveResult res;
  const int nranks = w.ranks;
  const int seg_steps = opt.segment_steps > 0 ? opt.segment_steps
                                              : w.segment_steps;
  const core::FieldFunction ic = seeded_solution(w, opt.seed, 0.0);
  std::vector<cmtbone::particles::Particle> cloud;
  if (w.particles > 0) cloud = seeded_cloud(w.particles, opt.seed);

  prof::CommProfiler comm_prof(nranks);
  std::vector<prof::CallProfile> call_profiles;
  comm::RunOptions run_opts;
  if (opt.traced) {
    run_opts.comm_profiler = &comm_prof;
    run_opts.call_profiles = &call_profiles;
  }
  SpanLog* spans = opt.traced ? opt.spans : nullptr;
  std::vector<RankTrace> traces(static_cast<std::size_t>(nranks));
  std::vector<double> ckpt_write_s, restore_s;

  // Rank 0 books each operation when it completes; one that throws is
  // booked, as attempted and failed, when the job has unwound.
  auto book = [&](const comm::Comm& world) {
    if (world.rank() == 0) ++res.attempted;
  };
  auto check = [&](const comm::Comm& world, bool ok, const std::string& what) {
    book(world);
    if (world.rank() == 0 && !ok) {
      ++res.failed;
      res.failures.push_back(what);
    }
  };

  auto check_within = [&](const comm::Comm& world, const std::string& name,
                          double value, double tol) {
    if (world.rank() == 0) {
      double& worst = res.checks[name];
      worst = std::max(worst, value);
    }
    char msg[160];
    std::snprintf(msg, sizeof msg, "%s %.3e > tolerance %.3e", name.c_str(),
                  value, tol);
    check(world, value <= tol, msg);
  };

  auto body = [&](comm::Comm& world) {
    const int rank = world.rank();
    RankTrace& trace = traces[std::size_t(rank)];
    auto fence = [&] {
      comm::SiteScope site(kFenceSite);
      Span s(spans, rank, "comm.Comm::barrier");
      world.barrier();
    };
    Span solve_span(spans, rank, "solve");

    // --- setup: barrier-fenced, no host probes inside ----------------------
    fence();
    prof::WallTimer setup_timer;
    std::unique_ptr<core::Driver> driver;
    {
      Span s(spans, rank, "core.Driver");
      driver = std::make_unique<core::Driver>(world, w.cfg);
    }
    core::Driver& d = *driver;
    {
      Span s(spans, rank, "core.Driver::initialize");
      d.initialize(ic);
    }
    if (!cloud.empty()) {
      Span s(spans, rank, "particles.Tracker::adopt_global");
      d.tracker()->adopt_global(cloud);
    }
    std::unique_ptr<cmtbone::resilience::CheckpointCoordinator> coord;
    if (w.checkpoint_interval > 0) {
      Span s(spans, rank, "resilience.CheckpointCoordinator");
      cmtbone::resilience::CheckpointOptions co;
      co.directory = opt.checkpoint_dir;
      co.interval = w.checkpoint_interval;
      co.buddy_replication = true;
      coord = std::make_unique<cmtbone::resilience::CheckpointCoordinator>(
          world, co);
    }
    fence();
    if (rank == 0) res.setup_s = setup_timer.seconds();
    if (opt.setup_only) return;
    if (opt.traced) {
      for (const auto& [name, node] : prof::thread_profile().root().children) {
        if (name.rfind("gs_setup", 0) == 0) trace.setup_gs_s += node->seconds;
      }
    }

    // Conserved-quantity references (untimed).
    const double integral0 = d.integral(0);
    const long long particles0 =
        d.tracker() != nullptr ? d.tracker()->total_count() : 0;

    // --- one step (plus its checkpoint, when due) ---------------------------
    auto do_step = [&](bool timed) {
      {
        Span s(spans, rank, "core.Driver::step");
        d.step();
      }
      if (timed) book(world);
      if (coord && d.steps_taken() % w.checkpoint_interval == 0) {
        Span s(spans, rank, "resilience.maybe_checkpoint");
        prof::WallTimer t;
        const long long epoch = coord->maybe_checkpoint(d);
        if (!timed) return;
        book(world);
        if (rank == 0) ckpt_write_s.push_back(t.seconds());
        if (opt.traced) {
          namespace fs = std::filesystem;
          using CC = cmtbone::resilience::CheckpointCoordinator;
          const int left = (rank + nranks - 1) % nranks;
          trace.checkpoint_bytes.push_back(
              double(fs::file_size(CC::primary_path(opt.checkpoint_dir,
                                                    "ckpt", epoch, rank))) +
              double(fs::file_size(CC::buddy_path(opt.checkpoint_dir, "ckpt",
                                                  epoch, left))));
        }
      }
    };

    for (int i = 0; i < w.warmup_steps; ++i) do_step(false);

    // --- timed segment --------------------------------------------------------
    fence();
    if (opt.traced) {
      trace.seg_start = flat_profile();
      trace.comm_start = comm_prof.rank_sites(rank);
    }
    d.reset_balance_stats();
    trace.moves_start = d.rebalance_moves();
    prof::WallTimer seg_timer;
    double prev = 0;
    for (int i = 0; i < seg_steps; ++i) {
      do_step(true);
      fence();
      const double now = seg_timer.seconds();
      if (rank == 0) res.step_s.push_back(now - prev);
      prev = now;
    }
    if (rank == 0) res.solve_s = prev;
    if (opt.traced) {
      trace.seg_end = flat_profile();
      trace.comm_end = comm_prof.rank_sites(rank);
      trace.busy_s = d.balance_stats().busy_seconds();
      trace.moves = d.rebalance_moves() - trace.moves_start;
      if (d.tracker() != nullptr) {
        trace.resident_particles = (long long)d.tracker()->local_count();
      }
    }

    // --- output checks ----------------------------------------------------------
    if (w.cfg.physics == core::Physics::kProxyAdvection) {
      const double t = opt.wrong_reference ? 1.5 * d.time() : d.time();
      double err;
      {
        Span s(spans, rank, "core.Driver::linf_error");
        err = d.linf_error(seeded_solution(w, opt.seed, t));
      }
      check_within(world, "linf_error", err, w.linf_tol);
    }
    {
      double integral;
      {
        Span s(spans, rank, "core.Driver::integral");
        integral = d.integral(0);
      }
      const double drift = std::abs(integral - integral0) / std::abs(integral0);
      check_within(world, "integral_drift", drift, w.drift_tol);
    }
    if (d.tracker() != nullptr) {
      long long count;
      {
        Span s(spans, rank, "particles.Tracker::total_count");
        count = d.tracker()->total_count();
      }
      check(world, count == particles0 && count == w.particles,
            "particle count " + std::to_string(count) + " != " +
                std::to_string(w.particles));
    }
    if (coord) {
      // Restore round trip: checkpoint now, move on, roll back, and demand
      // the gathered fields match the checkpointed ones bit for bit.
      {
        Span s(spans, rank, "resilience.checkpoint_now");
        coord->checkpoint_now(d);
      }
      book(world);
      std::vector<std::vector<double>> saved;
      for (int f = 0; f < d.nfields(); ++f) {
        Span s(spans, rank, "core.Driver::gather_global_field");
        saved.push_back(d.gather_global_field(f));
      }
      const long long epoch = d.steps_taken();
      for (int i = 0; i < 2; ++i) {
        Span s(spans, rank, "core.Driver::step");
        d.step();
      }
      long long restored;
      {
        Span s(spans, rank, "resilience.restore_latest");
        prof::WallTimer t;
        restored = coord->restore_latest(d);
        if (rank == 0) restore_s.push_back(t.seconds());
      }
      book(world);
      bool same = restored == epoch && d.steps_taken() == epoch;
      for (int f = 0; f < d.nfields(); ++f) {
        Span s(spans, rank, "core.Driver::gather_global_field");
        same = same && d.gather_global_field(f) == saved[std::size_t(f)];
      }
      check(world, same,
            "restore_latest round trip differs (epoch " +
                std::to_string(restored) + ", wanted " +
                std::to_string(epoch) + ")");
    }

    if (!opt.traced) return;

    // --- layer probes on the workload's own state (traced run only) ----------
    const int n = w.cfg.n;
    const int nel = d.element_layout().nel();
    const int nf = d.nfields();
    const std::size_t pts = std::size_t(n) * n * n * std::size_t(nel);
    auto fenced_median = [&](int reps, const std::function<void()>& fn) {
      std::vector<double> ts;
      for (int r = 0; r < reps; ++r) {
        fence();
        prof::WallTimer t;
        fn();
        fence();
        ts.push_back(t.seconds());
      }
      return median(ts);
    };
    auto sum_all = [&](double v) {
      return world.allreduce_one(v, comm::ReduceOp::kSum);
    };

    // kernels: all three grad_dispatch directions on every field.
    std::vector<double> out(pts);
    const double grad_s = fenced_median(5, [&] {
      for (int f = 0; f < nf; ++f) {
        for (int dir = 0; dir < 3; ++dir) {
          Span s(spans, rank, "kernels.grad_dispatch");
          cmtbone::kernels::grad_dispatch(dir, d.operators().d.data(),
                                          d.field(f).data(), out.data(), n,
                                          nel);
        }
      }
    });
    const double grad_flops =
        sum_all(3.0 * nf * 2.0 * std::pow(double(n), 4) * nel);

    // mesh: one FaceExchange call over every field's faces.
    const std::size_t fsz = cmtbone::mesh::face_array_size(n, nel);
    std::vector<double> myfaces(fsz * std::size_t(nf), 1.0),
        nbrfaces(fsz * std::size_t(nf), 0.0);
    const double fx_s = fenced_median(20, [&] {
      Span s(spans, rank, "mesh.FaceExchange::exchange");
      d.face_exchange().exchange(myfaces.data(), nbrfaces.data(), nf);
    });
    const double fx_bytes =
        sum_all(double(d.face_exchange().send_bytes_per_exchange(nf)));

    // gs: one exec_many over all fields (the dssum shape).
    std::vector<double> values(pts * std::size_t(nf));
    std::vector<double> gs_ts;
    for (int r = 0; r < 10; ++r) {
      for (int f = 0; f < nf; ++f) {
        std::copy(d.field(f).begin(), d.field(f).end(),
                  values.begin() + std::ptrdiff_t(pts) * f);
      }
      gs_ts.push_back(fenced_median(1, [&] {
        Span s(spans, rank, "gs.GatherScatter::exec_many");
        d.gather_scatter().exec_many(std::span<double>(values), nf,
                                     comm::ReduceOp::kSum);
      }));
    }

    // comm: a one-double allreduce.
    constexpr int kAllreduceCalls = 50;
    const double ar_s = fenced_median(5, [&] {
      for (int i = 0; i < kAllreduceCalls; ++i) {
        Span s(spans, rank, "comm.Comm::allreduce");
        (void)world.allreduce_one(1.0, comm::ReduceOp::kSum);
      }
    });

    const double step_flops = sum_all(double(d.flops_per_step()));
    if (rank == 0) {
      LayerSample& L = res.layers;
      L["kernels.grad_gflops"] = grad_flops / grad_s / 1e9;
      L["face_exchange.us"] = 1e6 * fx_s;
      L["face_exchange.bytes"] = fx_bytes;
      L["face_exchange.gbps"] = fx_bytes / fx_s / 1e9;
      L["gs.dssum_us"] = 1e6 * median(gs_ts);
      L["comm.allreduce_us"] = 1e6 * ar_s / kAllreduceCalls;
      L["core.step_flops"] = step_flops;
    }
  };

  try {
    comm::run(nranks, body, run_opts);
  } catch (const std::exception& e) {
    ++res.attempted;
    ++res.failed;
    res.failures.push_back(std::string("solve threw: ") + e.what());
    return res;
  }

  if (!opt.traced) return res;
  if (!call_profiles.empty()) {
    prof::CallProfile all;
    for (const prof::CallProfile& p : call_profiles) all.merge(p);
    res.regions = all.flat();
  }

  // --- per-layer figures from the region split and the comm profile --------
  LayerSample& L = res.layers;
  const double steps = double(seg_steps);
  auto mean_ms_per_step = [&](const std::function<double(const RankTrace&)>& f) {
    double sum = 0;
    for (const RankTrace& t : traces) sum += f(t);
    return 1e3 * sum / nranks / steps;
  };
  L["core.volume_ms"] = mean_ms_per_step(
      [](const RankTrace& t) { return region_delta(t, "ax_ (flux divergence)"); });
  L["core.surface_ms"] = mean_ms_per_step([](const RankTrace& t) {
    return region_delta(t, "full2face_cmt") + region_delta(t, "numerical_flux");
  });
  L["core.update_ms"] = mean_ms_per_step(
      [](const RankTrace& t) { return region_delta(t, "cmt_step", true); });
  L["core.dt_ms"] = mean_ms_per_step(
      [](const RankTrace& t) { return region_delta(t, "compute_dt"); });
  L["gs.ms_per_step"] = mean_ms_per_step(
      [](const RankTrace& t) { return region_delta(t, "gs_op_ (dssum)"); });
  const double exchange_ms = mean_ms_per_step([](const RankTrace& t) {
    return region_delta(t, "nearest_neighbor_exchange");
  });
  L["particles.advance_ms"] = mean_ms_per_step([](const RankTrace& t) {
    return region_delta(t, "particle_tracking") -
           region_delta(t, "particle_migrate") +
           region_delta(t, "particle_deposit");
  });
  L["particles.migrate_ms"] = mean_ms_per_step(
      [](const RankTrace& t) { return region_delta(t, "particle_migrate"); });
  const double busy_ms = mean_ms_per_step(
      [](const RankTrace& t) { return region_delta(t, "cmt_step"); });

  // Shares of the rank's busy step time (the cmt_step region).
  L["share.volume"] = busy_ms > 0 ? L["core.volume_ms"] / busy_ms : 0;
  L["share.exchange_gs"] =
      busy_ms > 0 ? (exchange_ms + L["gs.ms_per_step"]) / busy_ms : 0;
  L["share.particles"] =
      busy_ms > 0
          ? (L["particles.advance_ms"] + L["particles.migrate_ms"]) / busy_ms
          : 0;

  double rebalance_s = 0;
  long rebalance_calls = 0;
  for (const RankTrace& t : traces) {
    rebalance_s += region_delta(t, "rebalance");
    rebalance_calls += region_calls(t, "rebalance");
  }
  L["balance.rebalance_ms"] =
      rebalance_calls > 0 ? 1e3 * rebalance_s / rebalance_calls : 0;

  double setup_gs = 0, busy_max = 0, busy_sum = 0;
  double resident_max = 0, resident_sum = 0;
  double wait_frac_max = 0, msgs = 0, bytes = 0;
  for (const RankTrace& t : traces) {
    setup_gs += t.setup_gs_s;
    busy_max = std::max(busy_max, t.busy_s);
    busy_sum += t.busy_s;
    resident_max = std::max(resident_max, double(t.resident_particles));
    resident_sum += double(t.resident_particles);
    double comm_s = 0;
    for (const auto& [site, end] : t.comm_end) {
      if (site.rfind("bench.", 0) == 0) continue;
      prof::CommStat start;
      if (auto it = t.comm_start.find(site); it != t.comm_start.end()) {
        start = it->second;
      }
      comm_s += end.seconds - start.seconds;
      if (is_send(site)) {
        msgs += double(end.calls - start.calls);
        bytes += double(end.bytes - start.bytes);
      }
    }
    wait_frac_max = std::max(wait_frac_max, comm_s / res.solve_s);
  }
  L["setup.gs_ms"] = 1e3 * setup_gs / nranks;
  L["balance.imbalance"] = busy_sum > 0 ? busy_max * nranks / busy_sum : 1;
  L["particles.imbalance"] =
      resident_sum > 0 ? resident_max * nranks / resident_sum : 0;
  L["comm.wait_frac_max"] = wait_frac_max;
  L["balance.moves"] = double(traces[0].moves);
  L["comm.msgs_per_step"] = msgs / steps;
  L["comm.bytes_per_step"] = bytes / steps;

  const double step_med = median(res.step_s);
  L["core.step_gflops"] = L["core.step_flops"] / step_med / 1e9;
  L.erase("core.step_flops");

  std::vector<double> epoch_bytes;
  if (!traces.empty()) {
    for (std::size_t e = 0; e < traces[0].checkpoint_bytes.size(); ++e) {
      double sum = 0;
      for (const RankTrace& t : traces) sum += t.checkpoint_bytes[e];
      epoch_bytes.push_back(sum);
    }
  }
  const double ck_s = median(ckpt_write_s), ck_bytes = median(epoch_bytes);
  L["checkpoint.write_ms"] = 1e3 * ck_s;
  L["checkpoint.bytes"] = ck_bytes;
  L["checkpoint.gbps"] = ck_s > 0 ? ck_bytes / ck_s / 1e9 : 0;
  L["checkpoint.restore_ms"] = 1e3 * median(restore_s);
  return res;
}

}  // namespace cmtbench
