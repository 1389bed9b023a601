#pragma once
// The benchmark's three workloads and one solve of each.
//
// A solve is one closed-loop job: set up the solver stack (barrier-fenced),
// take a few warm-up steps, time a fixed segment of steps one by one (each
// fenced by a barrier on all ranks), then check the outputs. The workload
// seed makes the initial-condition coefficients and the particle cloud;
// the solver receives only those inputs.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "prof/callprof.hpp"
#include "spans.hpp"

namespace cmtbench {

struct Workload {
  std::string name;  // why each was chosen: README.md, BENCHMARK.json
  cmtbone::core::Config cfg;
  int ranks = 1;
  int warmup_steps = 2;
  int segment_steps = 20;      // timed steps per solve
  long long particles = 0;     // clustered cloud size (0 = no particles)
  int checkpoint_interval = 0; // coordinator cadence (0 = no coordinator)
  // Output-check tolerances, set from seed runs with a wide margin.
  double linf_tol = 0;   // proxy: max-norm error vs the exact translate
  double drift_tol = 0;  // relative drift of the field-0 integral
};

/// The workload registry, in run order.
const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Bytes the solver's per-rank arrays occupy, summed over ranks (computed
/// from array sizes, not measured).
long long working_set_bytes(const Workload& w);

/// Per-layer figures of one traced solve (units in the metric names).
using LayerSample = std::map<std::string, double>;

struct SolveOptions {
  std::uint64_t seed = 1;
  int segment_steps = 0;         // 0 = the workload's default
  bool wrong_reference = false;  // self-test: compare at the wrong time
  bool traced = false;           // attach profilers and record spans
  bool setup_only = false;       // stop after the fenced setup
  SpanLog* spans = nullptr;      // non-null only when traced
  std::string checkpoint_dir;    // scratch directory for checkpoint files
};

struct SolveResult {
  double setup_s = 0;
  double solve_s = 0;             // wall time of the timed segment
  std::vector<double> step_s;     // per-step wall times of the segment
  long long attempted = 0;        // timed steps, checkpoints, restores, checks
  long long failed = 0;
  std::vector<std::string> failures;  // one line per failed operation
  std::map<std::string, double> checks;  // worst value of each output check
  LayerSample layers;                 // filled only by traced solves
  // The program's own region split of a traced solve (all ranks merged,
  // whole job), as comm::RunOptions::call_profiles delivers it.
  std::vector<cmtbone::prof::CallProfile::FlatEntry> regions;
};

/// Run one solve of `w`. Never throws for a solver failure: a rank that
/// throws ends the solve, and the failure is counted in the result.
SolveResult run_solve(const Workload& w, const SolveOptions& opt);

}  // namespace cmtbench
