// Gather-scatter library: discovery, the three exchange algorithms, and
// agreement with a serial oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "chaos/chaos.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "gs/crystal.hpp"
#include "gs/gather_scatter.hpp"
#include "mesh/layout.hpp"
#include "mesh/numbering.hpp"
#include "mesh/partition.hpp"
#include "util/rng.hpp"

namespace {

using cmtbone::comm::Comm;
using cmtbone::gs::GatherScatter;
using cmtbone::gs::Method;
using cmtbone::gs::ReduceOp;

// Deterministic per-slot values derived from (seed, rank, slot).
double slot_value(std::uint64_t seed, int rank, std::size_t slot) {
  cmtbone::util::SplitMix64 rng(seed ^ (rank * 7919 + slot * 104729));
  return rng.uniform(-10.0, 10.0);
}

// Serial oracle: reduce values over all (rank, slot) pairs sharing an id.
std::map<long long, double> oracle_reduce(
    const std::vector<std::vector<long long>>& ids_per_rank,
    std::uint64_t seed, ReduceOp op) {
  std::map<long long, double> out;
  for (int r = 0; r < int(ids_per_rank.size()); ++r) {
    for (std::size_t s = 0; s < ids_per_rank[r].size(); ++s) {
      double v = slot_value(seed, r, s);
      auto [it, fresh] = out.try_emplace(ids_per_rank[r][s], v);
      if (!fresh) it->second = cmtbone::comm::apply(op, it->second, v);
    }
  }
  return out;
}

// Build per-rank slot ids from a mesh partition (the realistic workload).
std::vector<std::vector<long long>> mesh_ids(const cmtbone::mesh::BoxSpec& spec) {
  std::vector<std::vector<long long>> ids(spec.nranks());
  for (int r = 0; r < spec.nranks(); ++r) {
    cmtbone::mesh::Partition part(spec, r);
    ids[r] = cmtbone::mesh::global_gll_ids(part);
  }
  return ids;
}

cmtbone::mesh::BoxSpec small_spec(int px, int py, int pz) {
  cmtbone::mesh::BoxSpec s;
  s.n = 3;
  s.ex = 2 * px;
  s.ey = 2 * py;
  s.ez = 2 * pz;
  s.px = px;
  s.py = py;
  s.pz = pz;
  s.periodic = true;
  return s;
}

void check_method_against_oracle(const cmtbone::mesh::BoxSpec& spec,
                                 Method method, ReduceOp op,
                                 std::uint64_t seed) {
  auto ids = mesh_ids(spec);
  auto expected = oracle_reduce(ids, seed, op);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    const auto& my_ids = ids[world.rank()];
    GatherScatter gs(world, my_ids, method);
    std::vector<double> values(my_ids.size());
    for (std::size_t s = 0; s < values.size(); ++s) {
      values[s] = slot_value(seed, world.rank(), s);
    }
    gs.exec(std::span<double>(values), op);
    for (std::size_t s = 0; s < values.size(); ++s) {
      // Products of up to 8 contributions reach ~1e8; combine order differs
      // between methods and oracle, so tolerance is relative.
      double want = expected.at(my_ids[s]);
      ASSERT_NEAR(values[s], want, 1e-10 * std::max(1.0, std::abs(want)))
          << "rank=" << world.rank() << " slot=" << s;
    }
  });
}

struct GsCase {
  int px, py, pz;
  Method method;
  ReduceOp op;
};

class GsOracle : public ::testing::TestWithParam<GsCase> {};

TEST_P(GsOracle, MatchesSerialReduction) {
  const GsCase& c = GetParam();
  check_method_against_oracle(small_spec(c.px, c.py, c.pz), c.method, c.op,
                              1234);
}

std::vector<GsCase> gs_cases() {
  std::vector<GsCase> cases;
  const Method methods[] = {Method::kPairwise, Method::kCrystalRouter,
                            Method::kAllReduce};
  const ReduceOp ops[] = {ReduceOp::kSum, ReduceOp::kMin, ReduceOp::kMax,
                          ReduceOp::kProd};
  for (Method m : methods) {
    for (ReduceOp op : ops) {
      cases.push_back({2, 1, 1, m, op});
      cases.push_back({2, 2, 1, m, op});
    }
    // 3-D decompositions and non-power-of-two rank counts, sum only.
    cases.push_back({2, 2, 2, m, ReduceOp::kSum});
    cases.push_back({3, 1, 1, m, ReduceOp::kSum});
    cases.push_back({3, 2, 1, m, ReduceOp::kSum});
    cases.push_back({5, 1, 1, m, ReduceOp::kSum});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GsOracle, ::testing::ValuesIn(gs_cases()),
    [](const ::testing::TestParamInfo<GsCase>& info) {
      const GsCase& c = info.param;
      std::string m = c.method == Method::kPairwise       ? "pairwise"
                      : c.method == Method::kCrystalRouter ? "crystal"
                                                            : "allreduce";
      return m + "_P" + std::to_string(c.px) + std::to_string(c.py) +
             std::to_string(c.pz) + "_op" +
             std::to_string(static_cast<int>(c.op));
    });

// --- exact fold order --------------------------------------------------------
//
// The fold order each mode promises, checked bit for bit: a reordered fold
// moves low bits that GsOracle's 1e-10 tolerance cannot see.
//   ordered:  every copy of an id, folded from the identity in ascending-key
//             order (the same value on every rank);
//   pairwise: this rank's copies folded from the identity in slot order, then
//             each sharer rank's locally gathered value in ascending rank
//             order.

struct ExactCase {
  int px, py, pz;
  bool ordered;
  ReduceOp op;
};

double fold_from_identity(ReduceOp op, const std::vector<double>& copies) {
  double acc = op == ReduceOp::kProd ? 1.0 : 0.0;
  for (double v : copies) acc = cmtbone::comm::apply(op, acc, v);
  return acc;
}

// Expected result per rank and slot for per-slot inputs `vals`.
std::vector<std::vector<double>> exact_fold(
    const std::vector<std::vector<long long>>& ids,
    const std::vector<std::vector<long long>>& keys,
    const std::vector<std::vector<double>>& vals, bool ordered, ReduceOp op) {
  const int nranks = int(ids.size());
  // Per rank: id -> that rank's copies in slot order.
  std::vector<std::map<long long, std::vector<double>>> local(nranks);
  std::map<long long, std::vector<std::pair<long long, double>>> keyed;
  for (int r = 0; r < nranks; ++r) {
    for (std::size_t s = 0; s < ids[r].size(); ++s) {
      local[r][ids[r][s]].push_back(vals[r][s]);
      keyed[ids[r][s]].push_back({keys[r][s], vals[r][s]});
    }
  }
  std::vector<std::vector<double>> out(nranks);
  for (int r = 0; r < nranks; ++r) {
    for (long long id : ids[r]) {
      if (ordered) {
        auto sorted = keyed.at(id);
        std::sort(sorted.begin(), sorted.end());
        std::vector<double> copies;
        for (const auto& kv : sorted) copies.push_back(kv.second);
        out[r].push_back(fold_from_identity(op, copies));
        continue;
      }
      double acc = fold_from_identity(op, local[r].at(id));
      for (int q = 0; q < nranks; ++q) {
        if (q == r || !local[q].count(id)) continue;
        acc = cmtbone::comm::apply(op, acc,
                                   fold_from_identity(op, local[q].at(id)));
      }
      out[r].push_back(acc);
    }
  }
  return out;
}

class GsExactOrder : public ::testing::TestWithParam<ExactCase> {};

TEST_P(GsExactOrder, ExecAndSplitPhaseFoldInThePromisedOrder) {
  const ExactCase& c = GetParam();
  const auto spec = small_spec(c.px, c.py, c.pz);
  const int nranks = spec.nranks();
  const auto ids = mesh_ids(spec);
  std::vector<std::vector<long long>> keys(nranks);
  for (int r = 0; r < nranks; ++r) {
    keys[r] = cmtbone::mesh::global_gll_keys(
        cmtbone::mesh::ElementLayout::block(spec, r));
  }
  // Two fields with independent inputs; field f uses seed 900 + f.
  const int nf = 2;
  std::vector<std::vector<std::vector<double>>> want(nf);
  for (int f = 0; f < nf; ++f) {
    std::vector<std::vector<double>> vals(nranks);
    for (int r = 0; r < nranks; ++r) {
      for (std::size_t s = 0; s < ids[r].size(); ++s) {
        vals[r].push_back(slot_value(900 + f, r, s));
      }
    }
    want[f] = exact_fold(ids, keys, vals, c.ordered, c.op);
  }

  cmtbone::comm::run(nranks, [&](Comm& world) {
    const int r = world.rank();
    const std::size_t slots = ids[r].size();
    GatherScatter gs(world, ids[r], Method::kPairwise,
                     c.ordered ? std::span<const long long>(keys[r])
                               : std::span<const long long>());
    std::vector<double> one(slots), many(nf * slots);
    for (int f = 0; f < nf; ++f) {
      for (std::size_t s = 0; s < slots; ++s) {
        many[f * slots + s] = slot_value(900 + f, r, s);
      }
    }
    std::copy(many.begin(), many.begin() + slots, one.begin());
    gs.exec(std::span<double>(one), c.op);
    gs.exec_many_begin(std::span<double>(many), nf, c.op);
    gs.exec_many_finish();
    for (std::size_t s = 0; s < slots; ++s) {
      ASSERT_EQ(one[s], want[0][r][s]) << "exec rank=" << r << " slot=" << s;
      for (int f = 0; f < nf; ++f) {
        ASSERT_EQ(many[f * slots + s], want[f][r][s])
            << "split rank=" << r << " field=" << f << " slot=" << s;
      }
    }
  });
}

std::vector<ExactCase> exact_cases() {
  std::vector<ExactCase> cases;
  for (bool ordered : {false, true}) {
    for (ReduceOp op : {ReduceOp::kSum, ReduceOp::kProd}) {
      cases.push_back({2, 2, 1, ordered, op});
      cases.push_back({3, 1, 1, ordered, op});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Partitions, GsExactOrder, ::testing::ValuesIn(exact_cases()),
    [](const ::testing::TestParamInfo<ExactCase>& info) {
      const ExactCase& c = info.param;
      return std::string(c.ordered ? "ordered" : "pairwise") + "_P" +
             std::to_string(c.px) + std::to_string(c.py) +
             std::to_string(c.pz) +
             (c.op == ReduceOp::kSum ? "_sum" : "_prod");
    });

TEST(GsSetup, TopologyIdentifiesSharersExactly) {
  // 2 ranks, hand-built id sets: ids 5 and 7 shared, others private.
  cmtbone::comm::run(2, [](Comm& world) {
    std::vector<long long> ids = world.rank() == 0
                                     ? std::vector<long long>{1, 5, 7, 9}
                                     : std::vector<long long>{2, 5, 7, 11};
    auto topo = cmtbone::gs::gs_setup(world, ids);
    ASSERT_EQ(topo.shared.size(), 2u);
    EXPECT_EQ(topo.shared[0].id, 5);
    EXPECT_EQ(topo.shared[1].id, 7);
    int other = 1 - world.rank();
    for (const auto& sh : topo.shared) {
      ASSERT_EQ(sh.sharers.size(), 1u);
      EXPECT_EQ(sh.sharers[0], other);
    }
    EXPECT_EQ(topo.total_shared, 2);
  });
}

TEST(GsSetup, DuplicateLocalSlotsCollapse) {
  cmtbone::comm::run(2, [](Comm& world) {
    // Same id appears three times locally on rank 0.
    std::vector<long long> ids = world.rank() == 0
                                     ? std::vector<long long>{4, 4, 4, 8}
                                     : std::vector<long long>{4, 6};
    auto topo = cmtbone::gs::gs_setup(world, ids);
    if (world.rank() == 0) {
      EXPECT_EQ(topo.unique_ids.size(), 2u);
      EXPECT_EQ(topo.unique_of_slot[0], topo.unique_of_slot[1]);
      EXPECT_EQ(topo.unique_of_slot[1], topo.unique_of_slot[2]);
    }
    ASSERT_EQ(topo.shared.size(), 1u);
    EXPECT_EQ(topo.shared[0].id, 4);
  });
}

TEST(GsSetup, NoSharingMeansEmptyTopology) {
  cmtbone::comm::run(3, [](Comm& world) {
    std::vector<long long> ids = {world.rank() * 10 + 1, world.rank() * 10 + 2};
    auto topo = cmtbone::gs::gs_setup(world, ids);
    EXPECT_TRUE(topo.shared.empty());
    EXPECT_EQ(topo.total_shared, 0);
  });
}

TEST(GsOp, LocalGatherHandlesDuplicatesWithinRank) {
  // An id duplicated locally AND shared remotely: gs must fold local copies
  // first, then exchange, then write the result to every copy.
  cmtbone::comm::run(2, [](Comm& world) {
    std::vector<long long> ids = {100, 100, 7 + world.rank()};
    GatherScatter gs(world, ids, Method::kPairwise);
    std::vector<double> v = {1.0 + world.rank(), 10.0, 5.0};
    gs.exec(std::span<double>(v), ReduceOp::kSum);
    // id 100: rank0 contributes 1+10, rank1 contributes 2+10 -> 23.
    EXPECT_DOUBLE_EQ(v[0], 23.0);
    EXPECT_DOUBLE_EQ(v[1], 23.0);
    EXPECT_DOUBLE_EQ(v[2], 5.0);  // private id untouched
  });
}

TEST(GsOp, MultiplicityOfOnesCountsCopies) {
  // The dssum multiplicity trick: gs(add) over ones yields the number of
  // copies of each global point.
  auto spec = small_spec(2, 2, 1);
  auto ids = mesh_ids(spec);
  std::map<long long, int> copies;
  for (const auto& rank_ids : ids) {
    for (long long id : rank_ids) copies[id]++;
  }
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    const auto& my_ids = ids[world.rank()];
    GatherScatter gs(world, my_ids, Method::kCrystalRouter);
    std::vector<double> ones(my_ids.size(), 1.0);
    gs.exec(std::span<double>(ones), ReduceOp::kSum);
    for (std::size_t s = 0; s < ones.size(); ++s) {
      ASSERT_DOUBLE_EQ(ones[s], copies.at(my_ids[s]));
    }
  });
}

TEST(GsOp, RepeatedExecsAreIdempotentForMax) {
  auto spec = small_spec(2, 1, 1);
  auto ids = mesh_ids(spec);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    const auto& my_ids = ids[world.rank()];
    GatherScatter gs(world, my_ids, Method::kPairwise);
    std::vector<double> v(my_ids.size());
    for (std::size_t s = 0; s < v.size(); ++s) {
      v[s] = slot_value(9, world.rank(), s);
    }
    gs.exec(std::span<double>(v), ReduceOp::kMax);
    std::vector<double> once = v;
    gs.exec(std::span<double>(v), ReduceOp::kMax);
    for (std::size_t s = 0; s < v.size(); ++s) {
      ASSERT_DOUBLE_EQ(v[s], once[s]);
    }
  });
}

TEST(GsOp, AllMethodsAgreeWithEachOther) {
  auto spec = small_spec(3, 2, 1);
  auto ids = mesh_ids(spec);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    const auto& my_ids = ids[world.rank()];
    GatherScatter gs(world, my_ids, Method::kPairwise);
    std::vector<double> base(my_ids.size());
    for (std::size_t s = 0; s < base.size(); ++s) {
      base[s] = slot_value(77, world.rank(), s);
    }
    std::vector<double> a = base, b = base, c = base;
    gs.exec_with(std::span<double>(a), ReduceOp::kSum, Method::kPairwise);
    gs.exec_with(std::span<double>(b), ReduceOp::kSum, Method::kCrystalRouter);
    gs.exec_with(std::span<double>(c), ReduceOp::kSum, Method::kAllReduce);
    for (std::size_t s = 0; s < base.size(); ++s) {
      ASSERT_NEAR(a[s], b[s], 1e-11);
      ASSERT_NEAR(a[s], c[s], 1e-11);
    }
  });
}

// --- multi-field gs (gs_op_fields) --------------------------------------------

class GsManyMethods : public ::testing::TestWithParam<Method> {};

TEST_P(GsManyMethods, ExecManyMatchesPerFieldExec) {
  auto spec = small_spec(2, 2, 1);
  auto ids = mesh_ids(spec);
  const int nf = 3;
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    const auto& my_ids = ids[world.rank()];
    const std::size_t slots = my_ids.size();
    GatherScatter gs(world, my_ids, GetParam());

    // Field-major values; duplicate set for the per-field reference.
    std::vector<double> batched(nf * slots), reference(nf * slots);
    for (int f = 0; f < nf; ++f) {
      for (std::size_t s = 0; s < slots; ++s) {
        double v = slot_value(55 + f, world.rank(), s);
        batched[f * slots + s] = v;
        reference[f * slots + s] = v;
      }
    }
    gs.exec_many(std::span<double>(batched), nf, ReduceOp::kSum);
    for (int f = 0; f < nf; ++f) {
      gs.exec(std::span<double>(reference.data() + f * slots, slots),
              ReduceOp::kSum);
    }
    for (std::size_t i = 0; i < batched.size(); ++i) {
      ASSERT_NEAR(batched[i], reference[i], 1e-11) << "index " << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(AllMethods, GsManyMethods,
                         ::testing::Values(Method::kPairwise,
                                           Method::kCrystalRouter,
                                           Method::kAllReduce),
                         [](const ::testing::TestParamInfo<Method>& info) {
                           switch (info.param) {
                             case Method::kPairwise: return "pairwise";
                             case Method::kCrystalRouter: return "crystal";
                             default: return "allreduce";
                           }
                         });

TEST(GsMany, SingleFieldDegeneratesToExec) {
  cmtbone::comm::run(2, [](Comm& world) {
    std::vector<long long> ids = {3, 9, 9};
    GatherScatter gs(world, ids, Method::kPairwise);
    std::vector<double> a = {1.0, 2.0, 3.0}, b = a;
    gs.exec(std::span<double>(a), ReduceOp::kMax);
    gs.exec_many(std::span<double>(b), 1, ReduceOp::kMax);
    for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  });
}

TEST(GsMany, FieldsDoNotContaminateEachOther) {
  // Field 0 all zeros, field 1 all ones: sums must stay field-local.
  cmtbone::comm::run(2, [](Comm& world) {
    std::vector<long long> ids = {42};  // one id shared by both ranks
    GatherScatter gs(world, ids, Method::kCrystalRouter);
    std::vector<double> v = {0.0, 1.0};  // [field0, field1]
    gs.exec_many(std::span<double>(v), 2, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(v[0], 0.0);
    EXPECT_DOUBLE_EQ(v[1], 2.0);
  });
}

// --- typed gs (gslib datatype set) ---------------------------------------------

TEST(GsTyped, LongLongSumAcrossAllMethods) {
  auto spec = small_spec(2, 2, 1);
  auto ids = mesh_ids(spec);
  // Oracle: copies per id (each slot contributes rank+1).
  std::map<long long, long long> oracle;
  for (int r = 0; r < spec.nranks(); ++r) {
    for (long long id : ids[r]) oracle[id] += r + 1;
  }
  for (Method m : {Method::kPairwise, Method::kCrystalRouter,
                   Method::kAllReduce}) {
    cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
      const auto& my_ids = ids[world.rank()];
      GatherScatter gs(world, my_ids, m);
      std::vector<long long> v(my_ids.size(), world.rank() + 1);
      gs.exec_typed(std::span<long long>(v), ReduceOp::kSum);
      for (std::size_t s = 0; s < v.size(); ++s) {
        ASSERT_EQ(v[s], oracle.at(my_ids[s]))
            << cmtbone::gs::method_name(m) << " rank " << world.rank();
      }
    });
  }
}

TEST(GsTyped, IntMaxPicksLargestRank) {
  cmtbone::comm::run(3, [](Comm& world) {
    std::vector<long long> ids = {7, 100 + world.rank()};
    GatherScatter gs(world, ids, Method::kCrystalRouter);
    std::vector<int> v = {world.rank() * 10, -1};
    gs.exec_typed(std::span<int>(v), ReduceOp::kMax);
    EXPECT_EQ(v[0], 20);   // shared by all three ranks
    EXPECT_EQ(v[1], -1);   // private
  });
}

TEST(GsTyped, FloatMatchesDoubleWithinPrecision) {
  auto spec = small_spec(2, 1, 1);
  auto ids = mesh_ids(spec);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    const auto& my_ids = ids[world.rank()];
    GatherScatter gs(world, my_ids, Method::kPairwise);
    std::vector<double> vd(my_ids.size());
    std::vector<float> vf(my_ids.size());
    for (std::size_t s = 0; s < my_ids.size(); ++s) {
      vd[s] = slot_value(31, world.rank(), s);
      vf[s] = float(vd[s]);
    }
    gs.exec(std::span<double>(vd), ReduceOp::kSum);
    gs.exec_typed(std::span<float>(vf), ReduceOp::kSum);
    for (std::size_t s = 0; s < my_ids.size(); ++s) {
      ASSERT_NEAR(vf[s], vd[s], 1e-4 * std::max(1.0, std::abs(vd[s])));
    }
  });
}

TEST(GsTyped, MultiFieldIntegers) {
  cmtbone::comm::run(2, [](Comm& world) {
    std::vector<long long> ids = {5};
    GatherScatter gs(world, ids, Method::kAllReduce);
    // Field 0 sums ranks, field 1 takes component-wise products... (sum op
    // applies to both fields; values differ per field).
    std::vector<int> v = {world.rank() + 1, (world.rank() + 1) * 100};
    gs.exec_many_typed(std::span<int>(v), 2, ReduceOp::kSum,
                       Method::kAllReduce);
    EXPECT_EQ(v[0], 3);
    EXPECT_EQ(v[1], 300);
  });
}

TEST(GsAuto, TuningPicksSomeMethodAndRecordsAllThree) {
  auto spec = small_spec(2, 2, 1);
  auto ids = mesh_ids(spec);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    GatherScatter gs(world, ids[world.rank()], Method::kAuto);
    EXPECT_NE(gs.method(), Method::kAuto);
    ASSERT_EQ(gs.tuning().size(), 3u);
    for (const auto& row : gs.tuning()) {
      EXPECT_GE(row.min, 0.0);
      EXPECT_LE(row.min, row.avg + 1e-12);
      EXPECT_LE(row.avg, row.max + 1e-12);
    }
  });
}

// --- model-driven selection (Method::kModel) ------------------------------------

// Clears the process-wide calibrated machine on scope exit so a failing
// assertion cannot leak calibration into later tests.
struct CalibrationGuard {
  explicit CalibrationGuard(const cmtbone::netmodel::LogGPParams& p) {
    cmtbone::netmodel::set_calibrated_machine(p);
  }
  ~CalibrationGuard() { cmtbone::netmodel::clear_calibrated_machine(); }
};

TEST(GsModel, WithoutCalibrationFallsBackToMeasuredTuning) {
  cmtbone::netmodel::clear_calibrated_machine();
  auto spec = small_spec(2, 2, 1);
  auto ids = mesh_ids(spec);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    GatherScatter gs(world, ids[world.rank()], Method::kModel);
    EXPECT_NE(gs.method(), Method::kModel);
    EXPECT_NE(gs.method(), Method::kAuto);
    // The fallback is tune(), which measures all three algorithms.
    EXPECT_EQ(gs.tuning().size(), 3u);
  });
}

TEST(GsModel, CalibratedSelectionAgreesAcrossRanks) {
  CalibrationGuard cal(cmtbone::netmodel::qdr_infiniband());
  auto spec = small_spec(2, 2, 1);
  auto ids = mesh_ids(spec);
  std::vector<Method> chosen(spec.nranks());
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    GatherScatter gs(world, ids[world.rank()], Method::kModel);
    EXPECT_NE(gs.method(), Method::kModel);
    // Predicted costs for all three algorithms back the choice.
    EXPECT_EQ(gs.tuning().size(), 3u);
    chosen[world.rank()] = gs.method();
  });
  // A rank-divergent pick would deadlock the collective algorithms; the
  // selector reduces predictions so every rank lands on one method.
  for (int r = 1; r < spec.nranks(); ++r) {
    EXPECT_EQ(chosen[r], chosen[0]) << "rank " << r;
  }
}

TEST(GsModel, ModelSelectionIsBitIdenticalToForcedMethod) {
  CalibrationGuard cal(cmtbone::netmodel::qdr_infiniband());
  auto spec = small_spec(2, 2, 1);
  auto ids = mesh_ids(spec);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    GatherScatter model_gs(world, ids[world.rank()], Method::kModel);
    const Method picked = model_gs.method();
    GatherScatter forced_gs(world, ids[world.rank()], picked);

    const auto& my_ids = ids[world.rank()];
    std::vector<double> a(my_ids.size()), b(my_ids.size());
    for (std::size_t s = 0; s < my_ids.size(); ++s) {
      a[s] = b[s] = slot_value(17, world.rank(), s);
    }
    model_gs.exec(std::span<double>(a), ReduceOp::kSum);
    forced_gs.exec(std::span<double>(b), ReduceOp::kSum);
    for (std::size_t s = 0; s < my_ids.size(); ++s) {
      EXPECT_EQ(a[s], b[s]) << "slot " << s;  // exact, not approximate
    }
  });
}

TEST(GsModel, DriverFieldsBitIdenticalToForcedMethodAcrossRanksAndOverlap) {
  CalibrationGuard cal(cmtbone::netmodel::qdr_infiniband());
  for (int ranks : {1, 2, 4}) {
    for (bool overlap : {false, true}) {
      auto run_fields = [&](cmtbone::gs::Method method,
                            cmtbone::gs::Method* picked) {
        std::vector<std::vector<double>> fields;
        cmtbone::comm::run(ranks, [&](Comm& world) {
          cmtbone::core::Config cfg;
          cfg.n = 4;
          cfg.ex = cfg.ey = cfg.ez = 2;
          auto grid = cmtbone::mesh::BoxSpec::default_proc_grid(ranks);
          cfg.px = grid[0];
          cfg.py = grid[1];
          cfg.pz = grid[2];
          cfg.gs_method = method;
          cfg.overlap = overlap;
          cmtbone::core::Driver driver(world, cfg);
          driver.initialize(driver.default_ic());
          driver.run(2);
          if (world.rank() == 0) {
            if (picked != nullptr) {
              *picked = driver.gather_scatter().method();
            }
            for (int f = 0; f < driver.nfields(); ++f) {
              auto span = driver.field(f);
              fields.emplace_back(span.begin(), span.end());
            }
          }
        });
        return fields;
      };

      cmtbone::gs::Method picked = Method::kModel;
      const auto model_fields = run_fields(Method::kModel, &picked);
      ASSERT_NE(picked, Method::kModel);
      const auto forced_fields = run_fields(picked, nullptr);

      ASSERT_EQ(model_fields.size(), forced_fields.size());
      for (std::size_t f = 0; f < model_fields.size(); ++f) {
        ASSERT_EQ(model_fields[f].size(), forced_fields[f].size());
        for (std::size_t i = 0; i < model_fields[f].size(); ++i) {
          ASSERT_EQ(model_fields[f][i], forced_fields[f][i])
              << ranks << " ranks, overlap " << overlap << ", field " << f
              << ", node " << i;
        }
      }
    }
  }
}

TEST(GsModel, ReselectionAfterApplyLayoutAgreesAcrossRanks) {
  // Element migration rebuilds the topology, which re-runs the kModel
  // selection against the *new* exchange shape. The selection must resolve
  // to a concrete method and — because it feeds a collective exchange —
  // every rank must land on the same one, before and after the migration.
  CalibrationGuard cal(cmtbone::netmodel::qdr_infiniband());
  constexpr int kRanks = 4;
  std::vector<Method> before(kRanks, Method::kModel);
  std::vector<Method> after(kRanks, Method::kModel);
  cmtbone::comm::run(kRanks, [&](Comm& world) {
    cmtbone::core::Config cfg;
    cfg.n = 3;
    cfg.ex = cfg.ey = cfg.ez = 2;
    auto grid = cmtbone::mesh::BoxSpec::default_proc_grid(kRanks);
    cfg.px = grid[0];
    cfg.py = grid[1];
    cfg.pz = grid[2];
    cfg.gs_method = Method::kModel;
    cfg.fixed_dt = 1e-3;
    cmtbone::core::Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(1);
    before[world.rank()] = driver.gather_scatter().method();

    // Rotate every element's owner by one rank: ownership changes for all
    // gids but each rank keeps the same element count.
    std::vector<int> owner = driver.element_layout().owner();
    for (int& r : owner) r = (r + 1) % kRanks;
    driver.apply_layout(owner);
    after[world.rank()] = driver.gather_scatter().method();
    driver.run(1);  // the re-selected handle must actually carry a step
  });
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_NE(before[r], Method::kModel) << "rank " << r;
    EXPECT_NE(before[r], Method::kAuto) << "rank " << r;
    EXPECT_EQ(before[r], before[0]) << "rank " << r << " disagrees pre-move";
    EXPECT_NE(after[r], Method::kModel) << "rank " << r;
    EXPECT_NE(after[r], Method::kAuto) << "rank " << r;
    EXPECT_EQ(after[r], after[0]) << "rank " << r << " disagrees post-move";
  }
}

TEST(GsEdge, SingleRankHasNoSharersAndExecIsLocalOnly) {
  cmtbone::comm::run(1, [](Comm& world) {
    std::vector<long long> ids = {4, 4, 9};
    GatherScatter gs(world, ids, Method::kPairwise);
    EXPECT_TRUE(gs.topology().shared.empty());
    std::vector<double> v = {1.0, 2.0, 5.0};
    gs.exec(std::span<double>(v), ReduceOp::kSum);
    // Local duplicates still fold.
    EXPECT_DOUBLE_EQ(v[0], 3.0);
    EXPECT_DOUBLE_EQ(v[1], 3.0);
    EXPECT_DOUBLE_EQ(v[2], 5.0);
  });
}

TEST(GsEdge, EmptySlotListIsFine) {
  cmtbone::comm::run(2, [](Comm& world) {
    std::vector<long long> ids;
    if (world.rank() == 1) ids = {3, 4};
    GatherScatter gs(world, ids, Method::kCrystalRouter);
    std::vector<double> v(ids.size(), 2.0);
    gs.exec(std::span<double>(v), ReduceOp::kSum);
    if (world.rank() == 1) {
      EXPECT_DOUBLE_EQ(v[0], 2.0);  // nothing shared, values unchanged
    }
  });
}

TEST(GsEdge, TwoHandlesOnOneCommunicatorDoNotInterfere) {
  cmtbone::comm::run(2, [](Comm& world) {
    std::vector<long long> ids_a = {1, 2};
    std::vector<long long> ids_b = {2, 3};
    GatherScatter a(world, ids_a, Method::kPairwise);
    GatherScatter b(world, ids_b, Method::kPairwise);
    std::vector<double> va = {1.0, 1.0}, vb = {10.0, 10.0};
    a.exec(std::span<double>(va), ReduceOp::kSum);
    b.exec(std::span<double>(vb), ReduceOp::kSum);
    // Both ranks hold both ids, so every entry doubles within its handle.
    EXPECT_DOUBLE_EQ(va[0], 2.0);
    EXPECT_DOUBLE_EQ(vb[0], 20.0);
  });
}

TEST(GsStructure, PairwiseNeighborsAreFaceEdgeCornerRanks) {
  // On a periodic 2x2x1 grid each rank shares points with every other rank.
  auto spec = small_spec(2, 2, 1);
  auto ids = mesh_ids(spec);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    GatherScatter gs(world, ids[world.rank()], Method::kPairwise);
    auto nbrs = gs.pairwise_neighbors();
    EXPECT_EQ(int(nbrs.size()), world.size() - 1);
    EXPECT_GT(gs.pairwise_send_values(), 0u);
    EXPECT_GT(gs.big_vector_size(), 0);
  });
}

// --- crystal router as a generic router ---------------------------------------

struct Rec {
  int payload;
  int check;
};

class CrystalRoute : public ::testing::TestWithParam<int> {};

TEST_P(CrystalRoute, DeliversEveryRecordToItsDestination) {
  const int p = GetParam();
  cmtbone::comm::run(p, [&](Comm& world) {
    cmtbone::gs::CrystalRouter router(world);
    // Every rank sends 3 records to every rank (including itself).
    std::vector<Rec> records;
    std::vector<int> dest;
    for (int d = 0; d < p; ++d) {
      for (int c = 0; c < 3; ++c) {
        records.push_back({world.rank() * 1000 + d * 10 + c, d});
        dest.push_back(d);
      }
    }
    auto got = router.route_records(std::span<const Rec>(records), dest);
    ASSERT_EQ(int(got.size()), 3 * p);
    // Expect exactly records {src*1000 + me*10 + c} for all src, c.
    std::vector<int> payloads;
    for (const Rec& r : got) {
      EXPECT_EQ(r.check, world.rank());
      payloads.push_back(r.payload);
    }
    std::sort(payloads.begin(), payloads.end());
    std::size_t pos = 0;
    for (int src = 0; src < p; ++src) {
      for (int c = 0; c < 3; ++c) {
        EXPECT_EQ(payloads[pos++], src * 1000 + world.rank() * 10 + c);
      }
    }
  });
}

TEST_P(CrystalRoute, EmptyInjectionIsFine) {
  const int p = GetParam();
  cmtbone::comm::run(p, [&](Comm& world) {
    cmtbone::gs::CrystalRouter router(world);
    auto got = router.route_records(std::span<const Rec>(), {});
    EXPECT_TRUE(got.empty());
  });
}

TEST_P(CrystalRoute, StageCountIsCeilLog2) {
  // Ranks in a smaller half may finish early; the deepest rank goes exactly
  // ceil(log2 P) stages.
  const int p = GetParam();
  if (p == 1) return;
  cmtbone::comm::run(p, [&](Comm& world) {
    cmtbone::gs::CrystalRouter router(world);
    std::vector<Rec> one = {{1, 0}};
    std::vector<int> dest = {0};
    router.route_records(std::span<const Rec>(one), dest);
    int expected = 0;
    while ((1 << expected) < p) ++expected;
    int deepest = int(world.allreduce_one(double(router.stages()),
                                          cmtbone::comm::ReduceOp::kMax));
    EXPECT_EQ(deepest, expected);
    EXPECT_LE(router.stages(), expected);
    EXPECT_GE(router.stages(), 1);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CrystalRoute,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 11, 16));

// ---- degenerate topologies under chaos -------------------------------------
//
// Each case runs all three exchange algorithms against the serial oracle
// while a seeded ChaosEngine delays and reorders the runtime's messages.
// Degenerate sharing patterns exercise the empty-message and
// nothing-to-exchange paths, where a chaos hold with no follow-up traffic
// would expose any missed pump.

void check_gs_under_chaos(const std::vector<std::vector<long long>>& ids,
                          Method method, std::uint64_t chaos_seed) {
  const int p = int(ids.size());
  const std::uint64_t value_seed = 0xbeef;
  auto expected = oracle_reduce(ids, value_seed, ReduceOp::kSum);
  cmtbone::chaos::ChaosEngine engine(
      cmtbone::chaos::ChaosPolicy::for_seed(chaos_seed, p), p);
  cmtbone::comm::RunOptions options;
  options.chaos = &engine;
  cmtbone::comm::run(
      p,
      [&](Comm& world) {
        const auto& my_ids = ids[world.rank()];
        GatherScatter gs(world, my_ids, method);
        std::vector<double> values(my_ids.size());
        for (std::size_t s = 0; s < values.size(); ++s) {
          values[s] = slot_value(value_seed, world.rank(), s);
        }
        gs.exec(std::span<double>(values), ReduceOp::kSum);
        for (std::size_t s = 0; s < values.size(); ++s) {
          ASSERT_NEAR(values[s], expected.at(my_ids[s]), 1e-9)
              << "method=" << cmtbone::gs::method_name(method)
              << " rank=" << world.rank() << " slot=" << s;
        }
      },
      options);
}

const Method kAllGsMethods[] = {Method::kPairwise, Method::kCrystalRouter,
                                Method::kAllReduce};

TEST(GsChaos, SingleRankUnderChaos) {
  std::vector<std::vector<long long>> ids = {{0, 1, 2, 1, 0}};
  for (Method m : kAllGsMethods) {
    for (std::uint64_t seed : {1ull, 5ull, 9ull}) {
      check_gs_under_chaos(ids, m, seed);
    }
  }
}

TEST(GsChaos, EmptySharedSetUnderChaos) {
  // Disjoint id ranges: the nonlocal exchange has nothing to move.
  std::vector<std::vector<long long>> ids = {
      {0, 1, 2}, {10, 11, 12}, {20, 21, 22}, {30, 31, 32}};
  for (Method m : kAllGsMethods) {
    for (std::uint64_t seed : {1ull, 5ull, 9ull}) {
      check_gs_under_chaos(ids, m, seed);
    }
  }
}

TEST(GsChaos, AllIdsSharedByEveryRankUnderChaos) {
  // Every rank holds every id: maximal sharing, every pair exchanges.
  std::vector<std::vector<long long>> ids(4, {0, 1, 2, 3, 4, 5});
  for (Method m : kAllGsMethods) {
    for (std::uint64_t seed : {1ull, 5ull, 9ull}) {
      check_gs_under_chaos(ids, m, seed);
    }
  }
}

TEST(GsChaos, MeshPartitionUnderChaos) {
  // The realistic workload (mesh-derived ids) under a couple of seeds.
  auto ids = mesh_ids(small_spec(2, 2, 1));
  for (Method m : kAllGsMethods) {
    check_gs_under_chaos(ids, m, 3);
  }
}

}  // namespace
