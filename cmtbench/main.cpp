// cmtbench: the end-to-end benchmark of the CMT-bone solver stack.
//
//   cmtbench --workload <proxy_volume|proxy_halo|euler_particles>
//            [--seed N] [--seconds S] [--trace 0|1] [--steps N]
//            [--wrong-reference]
//
// Run from the checkout root: scratch files go under .bench_build/work and
// the traced run's span file to .bench_build/traces/<run id>.json.
// Repeats closed-loop solves of one workload for about --seconds seconds
// and prints, as its last line, one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). See README.md.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "kernels/dispatch.hpp"
#include "probes.hpp"
#include "prof/timer.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace cmtbench {
namespace {

// Environment knobs that would change what the solver runs or what the
// roofline probe reports; cleared before anything reads them.
constexpr const char* kPinnedEnv[] = {
    "CMTBONE_KERNEL_BACKEND",    "CMTBONE_KERNEL_AUTOTUNE",
    "CMTBONE_KERNEL_TUNE_CACHE", "CMTBONE_AUTOTUNE",
    "CMTBONE_TUNE_CACHE",        "CMTBONE_THREADS_PER_RANK",
    "CMTBONE_POOL_WORKERS",      "CMTBONE_PEAK_GFLOPS",
    "CMTBONE_MEM_GBS",
};

// Timed steps pooled over a run, at least: step_ms_p90 then has at least
// ten samples beyond it.
constexpr std::size_t kMinSteps = 100;
// setup_s samples per untraced run, at least; long solves (euler_particles)
// leave too few on their own for a steady median.
constexpr std::size_t kMinSetups = 15;
// A run never starts another solve past this many seconds.
constexpr double kHardStopSeconds = 150;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  int steps = 0;
  bool wrong_reference = false;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "cmtbench: %s\nusage: cmtbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--steps N] [--wrong-reference]\n",
               msg.c_str());
  std::exit(2);
}

long long parse_int(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno != 0) {
    usage_error(flag + " wants an integer, got '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--wrong-reference") {
      a.wrong_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      const long long s = parse_int(flag, value);
      if (s < 0) usage_error("--seed must be >= 0");
      a.seed = std::uint64_t(s);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0) ||
          a.seconds > 120) {
        usage_error("--seconds must be a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      const long long t = parse_int(flag, value);
      if (t != 0 && t != 1) usage_error("--trace must be 0 or 1");
      a.trace = int(t);
    } else if (flag == "--steps") {
      const long long s = parse_int(flag, value);
      if (s < 1 || s > 100000) usage_error("--steps must be in [1, 100000]");
      a.steps = int(s);
    } else {
      usage_error("unknown argument " + flag);
    }
  }
  if (a.workload.empty()) usage_error("--workload is required");
  if (find_workload(a.workload) == nullptr) {
    std::string names;
    for (const Workload& w : workloads()) names += " " + w.name;
    usage_error("unknown workload '" + a.workload + "' (known:" + names + ")");
  }
  return a;
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank =
      std::size_t(std::ceil(p / 100.0 * double(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Unit of every per-layer metric, in report order.
const std::vector<std::pair<std::string, std::string>>& layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"kernels.grad_gflops", "GFLOP/s"},
      {"kernels.grad_pct_peak", "%"},
      {"core.step_gflops", "GFLOP/s"},
      {"core.volume_ms", "ms"},
      {"core.surface_ms", "ms"},
      {"core.update_ms", "ms"},
      {"core.dt_ms", "ms"},
      {"face_exchange.us", "us"},
      {"face_exchange.bytes", "count"},
      {"face_exchange.gbps", "GB/s"},
      {"gs.dssum_us", "us"},
      {"gs.ms_per_step", "ms"},
      {"comm.wait_frac_max", "fraction"},
      {"comm.msgs_per_step", "count"},
      {"comm.bytes_per_step", "count"},
      {"comm.allreduce_us", "us"},
      {"comm.pingpong_latency_us", "us"},
      {"comm.pingpong_gbps", "GB/s"},
      {"particles.advance_ms", "ms"},
      {"particles.migrate_ms", "ms"},
      {"particles.imbalance", "ratio"},
      {"balance.imbalance", "ratio"},
      {"balance.moves", "count"},
      {"balance.rebalance_ms", "ms"},
      {"checkpoint.write_ms", "ms"},
      {"checkpoint.bytes", "count"},
      {"checkpoint.gbps", "GB/s"},
      {"checkpoint.restore_ms", "ms"},
      {"setup.gs_ms", "ms"},
      {"share.volume", "fraction"},
      {"share.exchange_gs", "fraction"},
      {"share.particles", "fraction"},
      {"host.peak_gflops", "GFLOP/s"},
      {"host.stream_gbps", "GB/s"},
      {"host.memcpy_gbps", "GB/s"},
      {"host.file_write_gbps", "GB/s"},
      {"trace.overhead_frac", "fraction"},
  };
  return units;
}

std::string span_metadata(const Args& a, const Workload& w,
                          const std::vector<SolveResult>& traced) {
  std::ostringstream o;
  o << "{\"workload\":\"" << w.name << "\",\"seed\":" << a.seed
    << ",\"isa\":\"" << cmtbone::kernels::isa_name() << "\"";
  if (!traced.empty()) {
    o << ",\"regions\":[";
    bool first = true;
    for (const auto& e : traced.back().regions) {
      o << (first ? "" : ",") << "{\"name\":\"" << json_escape(e.name)
        << "\",\"calls\":" << e.calls
        << ",\"inclusive_s\":" << json_number(e.inclusive)
        << ",\"exclusive_s\":" << json_number(e.exclusive) << "}";
      first = false;
    }
    o << "]";
  }
  o << "}";
  return o.str();
}

int run(const Args& a) {
  const Workload& w = *find_workload(a.workload);
  const bool traced = a.trace == 1;
  const std::string run_id =
      w.name + "-seed" + std::to_string(a.seed) + (traced ? "-traced" : "");

  // --- pinned environment and header ------------------------------------------
  std::string cleared;
  for (const char* var : kPinnedEnv) {
    if (const char* v = std::getenv(var)) {
      cleared += std::string(" ") + var + "=" + v;
      ::unsetenv(var);
    }
  }
  namespace fs = std::filesystem;
  const fs::path work = fs::path(".bench_build/work") / run_id;
  const fs::path ckpt_dir = work / "checkpoints";
  std::error_code ec;
  fs::remove_all(work, ec);
  fs::create_directories(ckpt_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cmtbench: cannot create %s: %s\n",
                 ckpt_dir.c_str(), ec.message().c_str());
    return 1;
  }

  const auto& cfg = w.cfg;
  std::printf("# cmtbench run=%s seconds=%g trace=%d\n", run_id.c_str(),
              a.seconds, a.trace);
  std::printf("# host nproc=%u isa=%s backend(n=%d)=%s llc_bytes=%lld\n",
              std::thread::hardware_concurrency(),
              cmtbone::kernels::isa_name(), cfg.n,
              cmtbone::kernels::backend_name(
                  cmtbone::kernels::selected_backend(cfg.n)),
              llc_bytes());
  std::printf("# env cleared:%s\n", cleared.empty() ? " (none)" : cleared.c_str());
  std::printf(
      "# workload %s: %d ranks (%dx%dx%d) x threads_per_rank %d, N=%d, "
      "%dx%dx%d elements, particles %lld, warm-up %d + timed %d steps per "
      "solve, working_set_bytes %lld (computed)\n",
      w.name.c_str(), w.ranks, cfg.px, cfg.py, cfg.pz, cfg.threads_per_rank,
      cfg.n, cfg.ex, cfg.ey, cfg.ez, w.particles, w.warmup_steps,
      a.steps > 0 ? a.steps : w.segment_steps, working_set_bytes(w));
  std::fflush(stdout);

  // --- host bounds (traced run only; never inside setup or a solve) --------
  HostBounds host;
  if (traced) {
    host = measure_host(work.string());
    std::printf(
        "# bounds peak %.2f GFLOP/s, stream %.2f GB/s, memcpy %.2f GB/s "
        "(arrays of %.0f bytes), file write %.3f GB/s, ping-pong %.2f us / "
        "%.2f GB/s\n",
        host.peak_gflops, host.stream_gbps, host.memcpy_gbps,
        host.memcpy_bytes, host.file_write_gbps, host.pingpong_latency_us,
        host.pingpong_gbps);
    std::printf("# ping-pong sweep (bytes: half round trip us):");
    for (const auto& [bytes, us] : host.pingpong_sweep) {
      std::printf(" %.0f:%.2f", bytes, us);
    }
    std::printf("\n");
  }

  // --- closed-loop solves until the time budget is spent ---------------------
  // The traced run alternates untraced and traced solves, so the tracing
  // overhead compares neighbours in time, not batches minutes apart.
  SpanLog spans(w.ranks);
  std::vector<SolveResult> plain, with_trace;
  std::vector<double> steps;
  long long attempted = 0, failed = 0;
  std::vector<std::string> failures;
  cmtbone::prof::WallTimer clock;
  double last = 0;
  for (int i = 0;; ++i) {
    SolveOptions opt;
    opt.seed = a.seed;
    opt.segment_steps = a.steps;
    opt.wrong_reference = a.wrong_reference;
    opt.traced = traced && i % 2 == 1;
    opt.spans = &spans;
    opt.checkpoint_dir = ckpt_dir.string();
    fs::remove_all(ckpt_dir, ec);
    fs::create_directories(ckpt_dir, ec);
    if (opt.traced) spans.begin_run(run_id + "-solve" + std::to_string(i));

    const double t0 = clock.seconds();
    SolveResult r = run_solve(w, opt);
    last = clock.seconds() - t0;
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& f : r.failures) failures.push_back(f);
    if (!opt.traced) steps.insert(steps.end(), r.step_s.begin(), r.step_s.end());
    (opt.traced ? with_trace : plain).push_back(std::move(r));

    const double elapsed = clock.seconds();
    const bool have_all = traced ? !with_trace.empty() : steps.size() >= kMinSteps;
    const bool time_left = elapsed + last <= a.seconds;
    if (elapsed > kHardStopSeconds) break;
    if (have_all && !time_left && (!traced || i % 2 == 1)) break;
  }
  std::vector<double> setups;
  for (const SolveResult& r : plain) setups.push_back(r.setup_s);
  while (!traced && setups.size() < kMinSetups &&
         clock.seconds() < kHardStopSeconds) {
    SolveOptions opt;
    opt.seed = a.seed;
    opt.setup_only = true;
    opt.checkpoint_dir = ckpt_dir.string();
    SolveResult r = run_solve(w, opt);
    failed += r.failed;
    for (const std::string& f : r.failures) failures.push_back(f);
    setups.push_back(r.setup_s);
  }
  fs::remove_all(work, ec);

  // --- report -------------------------------------------------------------------
  auto med = [](const std::vector<SolveResult>& v, double SolveResult::*field) {
    std::vector<double> xs;
    for (const SolveResult& r : v) xs.push_back(r.*field);
    return median(xs);
  };
  std::vector<Metric> metrics;
  if (!traced) {
    const double solve_s = med(plain, &SolveResult::solve_s);
    const double setup_s = median(setups);
    metrics = {
        {"solve_s", solve_s, "s"},
        {"step_ms_p50", 1e3 * median(steps), "ms"},
        {"step_ms_p90", 1e3 * percentile(steps, 90), "ms"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::printf("# %zu solves (+%zu setup-only), %zu timed steps pooled; "
                "solve_s:",
                plain.size(), setups.size() - plain.size(), steps.size());
    for (const SolveResult& r : plain) std::printf(" %.3f", r.solve_s);
    std::printf("\n");
  } else {
    std::map<std::string, std::vector<double>> samples;
    for (const SolveResult& r : with_trace) {
      for (const auto& [name, v] : r.layers) samples[name].push_back(v);
    }
    std::map<std::string, double> L;
    for (const auto& [name, v] : samples) L[name] = median(v);
    L["kernels.grad_pct_peak"] =
        host.peak_gflops > 0
            ? 100.0 * L["kernels.grad_gflops"] / (host.peak_gflops * w.ranks)
            : 0;
    L["comm.pingpong_latency_us"] = host.pingpong_latency_us;
    L["comm.pingpong_gbps"] = host.pingpong_gbps;
    L["host.peak_gflops"] = host.peak_gflops;
    L["host.stream_gbps"] = host.stream_gbps;
    L["host.memcpy_gbps"] = host.memcpy_gbps;
    L["host.file_write_gbps"] = host.file_write_gbps;
    const double plain_solve = med(plain, &SolveResult::solve_s);
    L["trace.overhead_frac"] =
        plain_solve > 0
            ? med(with_trace, &SolveResult::solve_s) / plain_solve - 1.0
            : 0;
    for (const auto& [name, unit] : layer_units()) {
      metrics.push_back({name, L[name], unit});
    }
    std::printf("# %zu untraced + %zu traced solves alternated\n",
                plain.size(), with_trace.size());

    const std::string out =
        (fs::path(".bench_build/traces") / (run_id + ".json")).string();
    fs::create_directories(fs::path(out).parent_path(), ec);
    if (!spans.write_chrome_json(out, span_metadata(a, w, with_trace))) {
      std::fprintf(stderr, "cmtbench: cannot write span file %s\n",
                   out.c_str());
      return 1;
    }
    std::printf("# span file %s\n", out.c_str());
  }

  for (const Metric& m : metrics) {
    std::printf("%s %s %.6g %s\n", w.name.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s ops_failed %lld of ops_attempted %lld\n", w.name.c_str(),
              failed, attempted);
  std::map<std::string, double> worst;
  for (const auto* runs : {&plain, &with_trace}) {
    for (const SolveResult& r : *runs) {
      for (const auto& [name, v] : r.checks) {
        worst[name] = std::max(worst[name], v);
      }
    }
  }
  for (const auto& [name, v] : worst) {
    std::printf("# check %s worst %.3e\n", name.c_str(), v);
  }
  for (const std::string& f : failures) {
    std::printf("# FAILED: %s\n", f.c_str());
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace cmtbench

int main(int argc, char** argv) {
  const cmtbench::Args args = cmtbench::parse_args(argc, argv);
  return cmtbench::run(args);
}
