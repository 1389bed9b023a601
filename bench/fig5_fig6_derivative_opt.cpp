// Figs. 5 & 6 reproduction: partial-derivative kernel runtimes, instruction
// counts, and cycle counts, with and without loop transformations.
//
// Paper setup: AMD Opteron 6378, gfortran, Nel=1563, N=10, 1000 "steps"
// (kernel invocations), PAPI counters. Here: the same kernels in C++, with
// the analytic instruction model (kernels::grad_instruction_estimate) plus
// prof::read_cycles() in place of hardware counters. The paper's
// headline: loop fusion + unroll makes dudt 2.31x and dudr 1.03x faster,
// while duds gains nothing because its access pattern forbids fusion.
//
// Usage: fig5_fig6_derivative_opt [--nel 200] [--steps 100] [--n 10]
//        (--nel 1563 --steps 1000 for the paper's exact workload)
//        [--json FILE] instead sweeps N=5..25 timing the production
//        contraction path (kernels::grad_dispatch) against the scalar
//        reference on the derivative contraction shapes, reports GFLOP/s
//        and % of the measured machine peak for each, and writes JSON.
//        Fails loudly (exit 1) if the production path loses to scalar
//        across the sweep, printing every N where it lost.
//        [--smoke] gates that the production path is not slower than
//        scalar on a subset of N (the CI smoke check).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/gradient.hpp"
#include "prof/roofline.hpp"
#include "prof/timer.hpp"
#include "sem/operators.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

struct Measurement {
  double seconds = 0;
  unsigned long long instructions = 0;
  // prof::read_cycles() ticks: TSC ticks on x86 but steady-clock
  // *nanoseconds* on other platforms (prof::cycle_unit_name() says which).
  unsigned long long cycles = 0;
};

Measurement measure(cmtbone::kernels::GradVariant v, int dir, const double* d,
                    const double* u, double* out, int n, int nel, int steps) {
  using namespace cmtbone::kernels;
  auto call = [&] {
    switch (dir) {
      case 0: grad_r(v, d, u, out, n, nel); break;
      case 1: grad_s(v, d, u, out, n, nel); break;
      default: grad_t(v, d, u, out, n, nel); break;
    }
  };
  call();  // warm up

  Measurement m;
  cmtbone::prof::WallTimer t;
  auto c0 = cmtbone::prof::read_cycles();
  for (int s = 0; s < steps; ++s) call();
  auto c1 = cmtbone::prof::read_cycles();
  m.seconds = t.seconds();
  m.instructions =
      (unsigned long long)(grad_instruction_estimate(v, n, nel)) * steps;
  m.cycles = c1 - c0;
  return m;
}

// --- production-vs-scalar sweep (--json) ------------------------------------
//
// Times the production contraction path and the scalar reference on the
// derivative contraction pair (dudr + dudt over a batch of elements, the
// shapes the solver routes through mxm). Best-of-k timing; element batch
// scaled so every N does comparable work.

double best_of_sweeps(const std::function<void()>& body) {
  body();  // warm up
  double best = 1e300;
  for (int s = 0; s < 7; ++s) {
    cmtbone::prof::WallTimer t;
    for (int r = 0; r < 20; ++r) body();
    best = std::min(best, t.seconds() / 20.0);
  }
  return best;
}

using GradFn = void (*)(int dir, const double* d, const double* u,
                        double* out, int n, int nel);

void scalar_grad(int dir, const double* d, const double* u, double* out,
                 int n, int nel) {
  using namespace cmtbone::kernels;
  switch (dir) {
    case 0: grad_r(GradVariant::kBasic, d, u, out, n, nel); break;
    case 1: grad_s(GradVariant::kBasic, d, u, out, n, nel); break;
    default: grad_t(GradVariant::kBasic, d, u, out, n, nel); break;
  }
}

struct Path {
  const char* name;
  GradFn grad;
};

// Index 0 is the reference every other path is gated against.
const Path kPaths[] = {
    {"scalar", &scalar_grad},
    {"batched", &cmtbone::kernels::grad_dispatch},
};

// Seconds per r+t sweep of each path on a random batch at order n.
std::vector<double> time_paths(int n, int nel, std::uint64_t seed) {
  const std::size_t epts = std::size_t(n) * n * n;
  cmtbone::util::SplitMix64 rng(seed);
  std::vector<double> d(std::size_t(n) * n), u(epts * nel),
      scratch(epts * nel);
  for (double& x : d) x = rng.uniform(-1, 1);
  for (double& x : u) x = rng.uniform(-1, 1);
  std::vector<double> secs;
  for (const Path& p : kPaths) {
    secs.push_back(best_of_sweeps([&] {
      p.grad(0, d.data(), u.data(), scratch.data(), n, nel);
      p.grad(2, d.data(), u.data(), scratch.data(), n, nel);
    }));
  }
  return secs;
}

int run_json_sweep(const std::string& path) {
  using namespace cmtbone;
  const prof::Machine& mach = prof::machine();

  FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"fig5_fig6_derivative_opt --json\",\n"
               "  \"compare\": \"production contraction path (batched) vs "
               "the scalar reference on the derivative contraction pair\",\n"
               "  \"shapes\": \"per element: dudr (NxN * NxN^2) + dudt "
               "(N^2xN * NxN)\",\n"
               "  \"timing\": \"best of 7 samples, 20 sweeps per sample\",\n"
               "  \"machine\": {\"isa\": \"%s\", \"peak_gflops\": %.2f, "
               "\"mem_gbytes_per_s\": %.2f},\n"
               "  \"results\": [\n",
               mach.isa.c_str(), mach.peak_gflops, mach.mem_gbytes);

  std::printf("=== production vs scalar sweep (isa %s, peak %.1f GFLOP/s, "
              "mem %.1f GB/s) ===\n",
              mach.isa.c_str(), mach.peak_gflops, mach.mem_gbytes);

  double log_speedup = 0.0;
  std::vector<int> losses;
  int sweep_points = 0;
  for (int n = 5; n <= 25; ++n) {
    const int nel = std::max(4, 4000 / (n * n));
    // r + t derivative of the whole batch: 2 x 2 N^4 nel flops.
    const double flops = 2.0 * kernels::grad_flops(n, nel);
    const double intensity = flops / (2.0 * kernels::grad_bytes(n, nel));
    const std::vector<double> secs = time_paths(n, nel, 7 * n + 1);

    std::fprintf(out,
                 "%s    {\"n\": %d, \"nel\": %d, \"intensity\": %.3f, "
                 "\"backends\": {",
                 n == 5 ? "" : ",\n", n, nel, intensity);
    std::printf("  N=%2d nel=%4d:", n, nel);
    for (std::size_t i = 0; i < secs.size(); ++i) {
      const double gflops = flops / secs[i] / 1e9;
      const double speedup = secs[0] / secs[i];
      std::fprintf(out,
                   "%s\"%s\": {\"seconds\": %.9e, \"gflops\": %.3f, "
                   "\"pct_peak\": %.2f, \"speedup_vs_scalar\": %.3f}",
                   i == 0 ? "" : ", ", kPaths[i].name, secs[i], gflops,
                   prof::percent_of_peak(mach, gflops), speedup);
      std::printf(" %s %.1fGF(%2.0f%%)", kPaths[i].name, gflops,
                  prof::percent_of_peak(mach, gflops));
    }
    std::fprintf(out, "}}");
    std::printf("\n");
    const double speedup = secs[0] / secs[1];
    log_speedup += std::log(speedup);
    if (speedup < 1.0) losses.push_back(n);
    ++sweep_points;
  }

  const double g = std::exp(log_speedup / sweep_points);
  std::fprintf(out, "\n  ],\n  \"geomean_speedup_vs_scalar\": %.3f\n}\n",
               g);
  std::fclose(out);
  std::printf("geomean speedup vs scalar: %.2fx\n", g);
  std::printf("(json written to %s)\n", path.c_str());

  // The production path exists purely as an optimization over the scalar
  // reference; losing across the sweep means the build is misconfigured
  // (e.g. a TU compiled without its intended flags) and the numbers would
  // silently misrepresent the kernels. Fail loudly, naming each losing N.
  if (g < 1.0) {
    std::fprintf(stderr,
                 "FAIL: the production path is slower than scalar across the "
                 "sweep (geomean %.3fx < 1.0); losing N:",
                 g);
    for (int n : losses) std::fprintf(stderr, " %d", n);
    std::fprintf(stderr, "\n");
    return 1;
  }
  return 0;
}

// --- smoke gate (--smoke) ----------------------------------------------------
//
// CI check: the production path must not be slower than scalar on a few
// paper-range sizes. The 0.9 floor absorbs timer noise on a shared host; a
// genuine inversion (broken TU flags, wrong ISA) lands far below it.
int run_smoke() {
  using namespace cmtbone;
  const std::vector<int> ns = {5, 8, 10, 13, 16};
  std::printf("=== production-vs-scalar smoke (isa %s) ===\n",
              kernels::isa_name());

  double log_sum = 0.0;
  for (int n : ns) {
    const std::vector<double> secs =
        time_paths(n, std::max(4, 2000 / (n * n)), 13 * n + 5);
    const double speedup = secs[0] / secs[1];
    std::printf("  N=%2d %s  %.2fx vs scalar\n", n,
                kernels::backend_name(kernels::selected_backend(n)), speedup);
    log_sum += std::log(speedup);
  }
  const double geomean = std::exp(log_sum / double(ns.size()));
  std::printf("geomean production speedup vs scalar: %.2fx\n", geomean);
  if (geomean < 0.9) {
    std::fprintf(stderr,
                 "FAIL: the production kernel is slower than scalar "
                 "(geomean %.3fx < 0.9) — a mis-built SIMD TU or a wrong "
                 "ISA pick\n",
                 geomean);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cmtbone;

  util::Cli cli(argc, argv);
  cli.describe("nel", "elements (default 200; paper used 1563)")
      .describe("steps", "kernel invocations (default 100; paper used 1000)")
      .describe("n", "GLL points per direction (default 10)")
      .describe("csv-dir", "also write result tables as CSV here")
      .describe("json",
                "sweep N=5..25, production path vs scalar, write JSON here")
      .describe("smoke", "gate production-vs-scalar on a few N (CI check)");
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  cli.reject_unknown();

  if (cli.has("smoke")) {
    return run_smoke();
  }
  if (cli.has("json")) {
    return run_json_sweep(cli.get("json", "BENCH_kernels.json"));
  }

  const int nel = cli.get_int("nel", 200);
  const int steps = cli.get_int("steps", 100);
  const int n = cli.get_int("n", 10);
  const std::string csv_dir = cli.get("csv-dir", "");

  auto op = sem::Operators::build(n);
  const std::size_t pts = std::size_t(n) * n * n * nel;
  std::vector<double> u(pts), out(pts);
  util::SplitMix64 rng(99);
  for (double& x : u) x = rng.uniform(-1, 1);

  const char* names[] = {"dudr", "duds", "dudt"};
  Measurement opt[3], basic[3];
  for (int dir = 0; dir < 3; ++dir) {
    opt[dir] = measure(kernels::GradVariant::kFusedUnrolled, dir, op.d.data(),
                       u.data(), out.data(), n, nel, steps);
    basic[dir] = measure(kernels::GradVariant::kBasic, dir, op.d.data(),
                         u.data(), out.data(), n, nel, steps);
  }

  const char* unit = prof::cycle_unit_name();
  std::printf(
      "=== Figs. 5/6: derivative kernel loop transformations ===\n"
      "Nel=%d, N=%d, %d invocations per kernel; counters: analytic model "
      "+ prof::read_cycles()\ncycle unit: %s\n\n",
      nel, n, steps, unit);

  const std::string cycles_col = std::string("Total Cycles (") + unit + ")";
  util::Table with({"Derivatives", "Runtime (seconds)", "Total instructions",
                    cycles_col});
  with.set_title("Fig. 5: with loop transformations (fused + unrolled)");
  for (int dir : {2, 0, 1}) {  // paper order: dudt, dudr, duds
    with.add_row({names[dir], util::Table::num(opt[dir].seconds, 3),
                  std::to_string(opt[dir].instructions),
                  std::to_string(opt[dir].cycles)});
  }
  std::printf("%s\n", with.str().c_str());
  cmtbone::bench::write_csv(csv_dir, "fig5_with_transformations", with);

  util::Table without({"Derivatives", "Runtime (seconds)", "Total instructions",
                       cycles_col});
  without.set_title("Fig. 6: basic implementation (no loop transformations)");
  for (int dir : {2, 0, 1}) {
    without.add_row({names[dir], util::Table::num(basic[dir].seconds, 3),
                     std::to_string(basic[dir].instructions),
                     std::to_string(basic[dir].cycles)});
  }
  std::printf("%s\n", without.str().c_str());
  cmtbone::bench::write_csv(csv_dir, "fig6_basic_implementation", without);

  std::printf("Speedups from loop transformations (paper: dudt 2.31x, dudr "
              "1.03x, duds ~1x):\n");
  for (int dir : {2, 0, 1}) {
    std::printf("  %s: %.2fx\n", names[dir],
                basic[dir].seconds / opt[dir].seconds);
  }

  // Roofline context: where these kernels sit against the measured machine
  // roofs (see prof/roofline.hpp for the probes and the cache-residency
  // caveat).
  const prof::Machine& mach = prof::machine();
  const double flops = double(kernels::grad_flops(n, nel)) * steps;
  const double intensity =
      double(kernels::grad_flops(n, nel)) / double(kernels::grad_bytes(n, nel));
  std::printf(
      "\nRoofline (isa %s, peak %.1f GFLOP/s, mem %.1f GB/s, "
      "intensity %.2f flop/byte -> attainable %.1f GFLOP/s):\n",
      mach.isa.c_str(), mach.peak_gflops, mach.mem_gbytes, intensity,
      prof::attainable_gflops(mach, intensity));
  for (int dir : {2, 0, 1}) {
    const double gflops = flops / opt[dir].seconds / 1e9;
    std::printf("  %s (fused+unrolled): %6.2f GFLOP/s = %4.1f%% of peak\n",
                names[dir], gflops, prof::percent_of_peak(mach, gflops));
  }
  return 0;
}
