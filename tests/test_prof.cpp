// Profiling substrate: call trees, comm profiler reports, timers.

#include <gtest/gtest.h>

#include <thread>

#include "comm/runtime.hpp"
#include "prof/callprof.hpp"
#include "prof/commprof.hpp"
#include "prof/timer.hpp"

namespace {

using cmtbone::prof::CallProfile;
using cmtbone::prof::CommProfiler;
using cmtbone::prof::ScopedRegion;

TEST(Timer, WallTimerAdvances) {
  cmtbone::prof::WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(t.seconds(), 0.004);
}

TEST(Timer, StopwatchAccumulatesLaps) {
  cmtbone::prof::Stopwatch sw;
  for (int i = 0; i < 3; ++i) {
    sw.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    sw.stop();
  }
  EXPECT_EQ(sw.laps(), 3);
  EXPECT_GT(sw.seconds(), 0.005);
  sw.reset();
  EXPECT_EQ(sw.laps(), 0);
}

TEST(Timer, CyclesMonotone) {
  auto a = cmtbone::prof::read_cycles();
  auto b = cmtbone::prof::read_cycles();
  EXPECT_GE(b, a);
}

TEST(Timer, CycleUnitMatchesPlatform) {
  // read_cycles() counts TSC ticks on x86 and steady-clock nanoseconds
  // elsewhere; the advertised unit must match the compiled-in reader so no
  // consumer ever mixes the two as one unit.
  using cmtbone::prof::CycleUnit;
  constexpr CycleUnit unit = cmtbone::prof::cycle_unit();
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_EQ(unit, CycleUnit::kTscCycles);
  EXPECT_STREQ(cmtbone::prof::cycle_unit_name(), "tsc-cycles");
#else
  EXPECT_EQ(unit, CycleUnit::kNanoseconds);
  EXPECT_STREQ(cmtbone::prof::cycle_unit_name(), "nanoseconds");
#endif
  EXPECT_STREQ(cmtbone::prof::cycle_unit_name(CycleUnit::kTscCycles),
               "tsc-cycles");
  EXPECT_STREQ(cmtbone::prof::cycle_unit_name(CycleUnit::kNanoseconds),
               "nanoseconds");
}

TEST(CallProf, BuildsNestedTree) {
  cmtbone::prof::reset_thread_profile();
  {
    ScopedRegion outer("step");
    {
      ScopedRegion inner("rhs");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    { ScopedRegion inner("rhs"); }
    { ScopedRegion other("gs"); }
  }
  const auto& prof = cmtbone::prof::thread_profile();
  auto flat = prof.flat();
  ASSERT_GE(flat.size(), 3u);
  long rhs_calls = 0;
  for (const auto& e : flat) {
    if (e.name == "rhs") rhs_calls = e.calls;
  }
  EXPECT_EQ(rhs_calls, 2);
  EXPECT_GT(prof.total_seconds(), 0.0);
  std::string report = prof.tree_report();
  EXPECT_NE(report.find("step"), std::string::npos);
  EXPECT_NE(report.find("rhs"), std::string::npos);
}

TEST(CallProf, ExclusiveTimeSubtractsChildren) {
  cmtbone::prof::reset_thread_profile();
  {
    ScopedRegion outer("outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
    {
      ScopedRegion inner("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }
  }
  auto flat = cmtbone::prof::thread_profile().flat();
  double outer_excl = 0, outer_incl = 0, inner_incl = 0;
  for (const auto& e : flat) {
    if (e.name == "outer") {
      outer_excl = e.exclusive;
      outer_incl = e.inclusive;
    }
    if (e.name == "inner") inner_incl = e.inclusive;
  }
  EXPECT_GT(inner_incl, 0.003);
  EXPECT_NEAR(outer_excl, outer_incl - inner_incl, 1e-9);
}

TEST(CallProf, MergeAccumulatesAcrossProfiles) {
  CallProfile a, b;
  a.enter("x");
  a.leave(1.0);
  b.enter("x");
  b.leave(2.0);
  b.enter("y");
  b.leave(0.5);
  a.merge(b);
  auto flat = a.flat();
  double x_time = 0, y_time = 0;
  long x_calls = 0;
  for (const auto& e : flat) {
    if (e.name == "x") {
      x_time = e.inclusive;
      x_calls = e.calls;
    }
    if (e.name == "y") y_time = e.inclusive;
  }
  EXPECT_DOUBLE_EQ(x_time, 3.0);
  EXPECT_EQ(x_calls, 2);
  EXPECT_DOUBLE_EQ(y_time, 0.5);
}

TEST(CommProf, RecordsAndAggregates) {
  CommProfiler prof(2);
  prof.record(0, "gs/MPI_Isend", 0.5, 100);
  prof.record(0, "gs/MPI_Isend", 0.25, 50);
  prof.record(1, "gs/MPI_Wait", 1.0, 0);
  prof.set_rank_walltime(0, 1.5);
  prof.set_rank_walltime(1, 2.0);

  EXPECT_DOUBLE_EQ(prof.rank_comm_seconds(0), 0.75);
  auto frac = prof.comm_fraction_per_rank();
  EXPECT_DOUBLE_EQ(frac[0], 0.5);
  EXPECT_DOUBLE_EQ(frac[1], 0.5);

  auto sites = prof.site_totals();
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].site, "gs/MPI_Wait");  // sorted by time
  EXPECT_EQ(sites[1].calls, 2);
  EXPECT_EQ(sites[1].total_bytes, 150);
  EXPECT_DOUBLE_EQ(sites[1].avg_bytes, 75.0);

  auto top1 = prof.top_sites(1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].site, "gs/MPI_Wait");
}

TEST(CommProf, ReportsRenderWithoutCrashing) {
  CommProfiler prof(2);
  prof.record(0, "a/MPI_Send", 0.1, 64);
  prof.set_rank_walltime(0, 0.2);
  prof.set_rank_walltime(1, 0.2);
  EXPECT_NE(prof.report_fraction_per_rank().find("rank"), std::string::npos);
  EXPECT_NE(prof.report_top_sites(5).find("MPI_Send"), std::string::npos);
  EXPECT_NE(prof.report_message_sizes(5).find("64"), std::string::npos);
  prof.reset();
  EXPECT_TRUE(prof.site_totals().empty());
}

TEST(CommProf, RuntimeIntegrationAttributesSites) {
  CommProfiler prof(2);
  cmtbone::comm::RunOptions opts;
  opts.comm_profiler = &prof;
  cmtbone::comm::run(2, [](cmtbone::comm::Comm& world) {
    cmtbone::comm::SiteScope site("unit_test_phase");
    double x = world.rank();
    world.allreduce(std::span<double>(&x, 1), cmtbone::comm::ReduceOp::kSum);
  }, opts);
  bool found = false;
  for (const auto& s : prof.site_totals()) {
    if (s.site == "unit_test_phase/MPI_Allreduce") {
      found = true;
      EXPECT_EQ(s.calls, 2);  // one per rank
    }
  }
  EXPECT_TRUE(found);
  EXPECT_GT(prof.rank_walltime(0), 0.0);
}

}  // namespace
