// Kernel variants: mxm, gradient loop transformations, tensor apply.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "kernels/dispatch.hpp"
#include "kernels/div.hpp"
#include "kernels/gradient.hpp"
#include "kernels/mxm.hpp"
#include "kernels/simd_backend.hpp"
#include "kernels/tensor.hpp"
#include "sem/operators.hpp"
#include "util/rng.hpp"

namespace {

using cmtbone::kernels::GradVariant;
using cmtbone::util::SplitMix64;

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

TEST(Mxm, MatchesNaiveTripleLoop) {
  const int n1 = 5, n2 = 7, n3 = 4;
  auto a = random_vec(std::size_t(n1) * n2, 1);
  auto b = random_vec(std::size_t(n2) * n3, 2);
  std::vector<double> c(std::size_t(n1) * n3, -7.0);
  cmtbone::kernels::mxm(a.data(), n1, b.data(), n2, c.data(), n3);
  for (int j = 0; j < n3; ++j) {
    for (int i = 0; i < n1; ++i) {
      double s = 0.0;
      for (int l = 0; l < n2; ++l) s += a[i + n1 * l] * b[l + n2 * j];
      EXPECT_NEAR(c[i + n1 * j], s, 1e-13);
    }
  }
}

TEST(Mxm, IdentityLeavesMatrixUnchanged) {
  const int n = 6;
  std::vector<double> eye(n * n, 0.0);
  for (int i = 0; i < n; ++i) eye[i + n * i] = 1.0;
  auto b = random_vec(n * n, 3);
  std::vector<double> c(n * n);
  cmtbone::kernels::mxm(eye.data(), n, b.data(), n, c.data(), n);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_DOUBLE_EQ(c[i], b[i]);
}

TEST(Mxm, AccumulatingFormAddsToC) {
  const int n = 4;
  auto a = random_vec(n * n, 4);
  auto b = random_vec(n * n, 5);
  std::vector<double> c0(n * n, 1.0), c1(n * n, 0.0);
  cmtbone::kernels::mxm(a.data(), n, b.data(), n, c1.data(), n);
  cmtbone::kernels::mxm_acc(a.data(), n, b.data(), n, c0.data(), n);
  for (int i = 0; i < n * n; ++i) EXPECT_NEAR(c0[i], c1[i] + 1.0, 1e-13);
}

// --- fixed-N microkernel lookup --------------------------------------------

TEST(MxmFixed, BitIdenticalToRuntimeMxmForEveryDispatchedN) {
  // The fixed-N kernels accumulate over l in the same ascending order as the
  // runtime loop, so the results must match bit for bit — which is what lets
  // the solver run them without perturbing physics results.
  for (int n2 = 2; n2 <= 25; ++n2) {
    cmtbone::kernels::MxmFixedFn f = cmtbone::kernels::mxm_fixed_kernel(n2);
    ASSERT_NE(f, nullptr) << "n2=" << n2;
    // Cover both the 4-wide blocked rows and the remainder rows.
    for (int n1 : {8, 5, 3}) {
      const int n3 = 6;
      auto a = random_vec(std::size_t(n1) * n2, 100 + n2);
      auto b = random_vec(std::size_t(n2) * n3, 200 + n2);
      std::vector<double> c_ref(std::size_t(n1) * n3, 0.0);
      std::vector<double> c_fix(std::size_t(n1) * n3, 0.0);
      cmtbone::kernels::mxm(a.data(), n1, b.data(), n2, c_ref.data(), n3);
      f(a.data(), n1, b.data(), c_fix.data(), n3);
      for (std::size_t i = 0; i < c_ref.size(); ++i) {
        ASSERT_EQ(c_ref[i], c_fix[i]) << "n2=" << n2 << " n1=" << n1
                                      << " idx=" << i;
      }
    }
  }
}

TEST(MxmFixed, DispatchTableBounds) {
  EXPECT_EQ(cmtbone::kernels::mxm_fixed_kernel(1), nullptr);
  EXPECT_EQ(cmtbone::kernels::mxm_fixed_kernel(26), nullptr);
  EXPECT_EQ(cmtbone::kernels::mxm_fixed_kernel(0), nullptr);
  EXPECT_NE(cmtbone::kernels::mxm_fixed_kernel(2), nullptr);
  EXPECT_NE(cmtbone::kernels::mxm_fixed_kernel(25), nullptr);
}

TEST(MxmFixed, AutoFallsBackToRuntimeKernelBeyondTable) {
  const int n2 = 30;  // outside the 2..25 dispatch range
  const int n1 = 7, n3 = 5;
  auto a = random_vec(std::size_t(n1) * n2, 11);
  auto b = random_vec(std::size_t(n2) * n3, 12);
  std::vector<double> c_ref(std::size_t(n1) * n3, 0.0);
  std::vector<double> c_auto(std::size_t(n1) * n3, 0.0);
  cmtbone::kernels::mxm(a.data(), n1, b.data(), n2, c_ref.data(), n3);
  cmtbone::kernels::mxm_auto(a.data(), n1, b.data(), n2, c_auto.data(), n3);
  for (std::size_t i = 0; i < c_ref.size(); ++i) {
    EXPECT_EQ(c_ref[i], c_auto[i]);
  }
}

// --- gradient through the fixed-N kernels -----------------------------------
// The three derivatives spelled as whole-element mxm contractions through
// mxm_auto(): r: out_e = D * U_e (U viewed as N x N^2); s and t right-multiply
// by D^T. Per output entry the accumulation runs over l ascending, exactly
// like kBasic, so the results must be bit-identical.

void grad_via_mxm_fixed(int dir, const double* d, const double* u,
                        double* out, int n, int nel) {
  const std::size_t stride = std::size_t(n) * n * n;
  const std::size_t n2 = std::size_t(n) * n;
  std::vector<double> dt(n2);
  for (int l = 0; l < n; ++l) {
    for (int j = 0; j < n; ++j) dt[l + std::size_t(n) * j] = d[j + std::size_t(n) * l];
  }
  for (int e = 0; e < nel; ++e) {
    const double* ue = u + e * stride;
    double* oe = out + e * stride;
    if (dir == 0) {
      cmtbone::kernels::mxm_auto(d, n, ue, n, oe, n * n);
    } else if (dir == 1) {
      for (int k = 0; k < n; ++k) {
        cmtbone::kernels::mxm_auto(ue + k * n2, n, dt.data(), n, oe + k * n2, n);
      }
    } else {
      cmtbone::kernels::mxm_auto(ue, n * n, dt.data(), n, oe, n);
    }
  }
}

TEST(Gradient, MxmFixedVariantBitIdenticalToBasic) {
  for (int n : {5, 9, 13}) {
    const int nel = 3;
    const std::size_t pts = std::size_t(n) * n * n * nel;
    auto ops = cmtbone::sem::Operators::build(n);
    auto u = random_vec(pts, 40 + n);
    std::vector<double> ref(pts), fix(pts);
    using cmtbone::kernels::grad_r;
    using cmtbone::kernels::grad_s;
    using cmtbone::kernels::grad_t;
    grad_r(GradVariant::kBasic, ops.d.data(), u.data(), ref.data(), n, nel);
    grad_via_mxm_fixed(0, ops.d.data(), u.data(), fix.data(), n, nel);
    for (std::size_t p = 0; p < pts; ++p) ASSERT_EQ(ref[p], fix[p]) << n;
    grad_s(GradVariant::kBasic, ops.d.data(), u.data(), ref.data(), n, nel);
    grad_via_mxm_fixed(1, ops.d.data(), u.data(), fix.data(), n, nel);
    for (std::size_t p = 0; p < pts; ++p) ASSERT_EQ(ref[p], fix[p]) << n;
    grad_t(GradVariant::kBasic, ops.d.data(), u.data(), ref.data(), n, nel);
    grad_via_mxm_fixed(2, ops.d.data(), u.data(), fix.data(), n, nel);
    for (std::size_t p = 0; p < pts; ++p) ASSERT_EQ(ref[p], fix[p]) << n;
  }
}

// --- gradient paths agree with the basic reference -------------------------
// A path is one of the GradVariant loop transformations (by value), or one
// of the two spellings of the production contraction that follow them.

const int kPathMxmFixed = int(cmtbone::kernels::all_variants().size());
const int kPathDispatch = kPathMxmFixed + 1;

struct GradCase {
  int n;
  int path;
};

std::string path_name(int path) {
  if (path == kPathMxmFixed) return "mxm-fixed";
  if (path == kPathDispatch) return "dispatch";
  return cmtbone::kernels::variant_name(static_cast<GradVariant>(path));
}

void run_path(int path, int dir, const double* d, const double* u,
              double* out, int n, int nel) {
  if (path == kPathMxmFixed) {
    grad_via_mxm_fixed(dir, d, u, out, n, nel);
  } else if (path == kPathDispatch) {
    cmtbone::kernels::grad_dispatch(dir, d, u, out, n, nel);
  } else {
    const auto v = static_cast<GradVariant>(path);
    if (dir == 0) cmtbone::kernels::grad_r(v, d, u, out, n, nel);
    if (dir == 1) cmtbone::kernels::grad_s(v, d, u, out, n, nel);
    if (dir == 2) cmtbone::kernels::grad_t(v, d, u, out, n, nel);
  }
}

class GradAgree : public ::testing::TestWithParam<GradCase> {};

TEST_P(GradAgree, AllDirectionsMatchBasic) {
  const auto [n, path] = GetParam();
  const int nel = 3;
  const std::size_t pts = std::size_t(n) * n * n * nel;
  auto op = cmtbone::sem::Operators::build(n);
  auto u = random_vec(pts, 100 + n);

  std::vector<double> ref(pts), got(pts);
  for (int dir = 0; dir < 3; ++dir) {
    run_path(int(GradVariant::kBasic), dir, op.d.data(), u.data(), ref.data(),
             n, nel);
    run_path(path, dir, op.d.data(), u.data(), got.data(), n, nel);
    for (std::size_t i = 0; i < pts; ++i) EXPECT_NEAR(got[i], ref[i], 1e-12);
  }
}

std::vector<GradCase> all_grad_cases() {
  std::vector<GradCase> cases;
  for (int n : {2, 3, 5, 8, 10, 13, 16, 25, 27 /* no unrolled instantiation */}) {
    for (int path = 0; path <= kPathDispatch; ++path) cases.push_back({n, path});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GradAgree, ::testing::ValuesIn(all_grad_cases()),
    [](const ::testing::TestParamInfo<GradCase>& info) {
      std::string name = path_name(info.param.path);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return "N" + std::to_string(info.param.n) + "_" + name;
    });

// --- gradients differentiate correctly -------------------------------------

TEST(Gradient, DifferentiatesTensorPolynomialExactly) {
  // u(r,s,t) = r^2 s + 3 t on one element; all three partials are degree
  // < n, so spectral differentiation is exact.
  const int n = 6, nel = 1;
  auto op = cmtbone::sem::Operators::build(n);
  const auto& x = op.rule.nodes;
  std::vector<double> u(n * n * n), ur(u.size()), us(u.size()), ut(u.size());
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        u[i + n * (j + n * k)] = x[i] * x[i] * x[j] + 3.0 * x[k];
      }
    }
  }
  cmtbone::kernels::grad3(GradVariant::kFusedUnrolled, op.d.data(), u.data(),
                          ur.data(), us.data(), ut.data(), n, nel);
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        std::size_t p = i + n * (j + std::size_t(n) * k);
        EXPECT_NEAR(ur[p], 2.0 * x[i] * x[j], 1e-11);
        EXPECT_NEAR(us[p], x[i] * x[i], 1e-11);
        EXPECT_NEAR(ut[p], 3.0, 1e-11);
      }
    }
  }
}

TEST(Gradient, FlopAndInstructionModels) {
  using cmtbone::kernels::grad_flops;
  using cmtbone::kernels::grad_instruction_estimate;
  EXPECT_EQ(grad_flops(10, 1), 20000);
  EXPECT_EQ(grad_flops(10, 100), 2000000);
  // Unrolling must reduce the modeled instruction count, never the flops.
  for (int n : {5, 10, 25}) {
    long long basic =
        grad_instruction_estimate(GradVariant::kBasic, n, 10);
    long long unrolled =
        grad_instruction_estimate(GradVariant::kFusedUnrolled, n, 10);
    EXPECT_GT(basic, unrolled);
    EXPECT_GT(unrolled, grad_flops(n, 10));  // model includes memory ops
  }
}

// --- fused divergence ---------------------------------------------------------

TEST(Div3, FusedMatchesThreeSeparateDerivatives) {
  const int n = 6, nel = 3;
  const std::size_t pts = std::size_t(n) * n * n * nel;
  auto op = cmtbone::sem::Operators::build(n);
  auto fx = random_vec(pts, 41), fy = random_vec(pts, 42), fz = random_vec(pts, 43);
  std::vector<double> fused(pts), reference(pts);
  const double sx = 2.0, sy = -1.5, sz = 0.5;
  cmtbone::kernels::div3(op.d.data(), fx.data(), fy.data(), fz.data(),
                         fused.data(), n, nel, sx, sy, sz, /*fused=*/true);
  cmtbone::kernels::div3(op.d.data(), fx.data(), fy.data(), fz.data(),
                         reference.data(), n, nel, sx, sy, sz,
                         /*fused=*/false);
  for (std::size_t p = 0; p < pts; ++p) {
    ASSERT_NEAR(fused[p], reference[p], 1e-11);
  }
}

TEST(Div3, DivergenceOfLinearFieldIsExact) {
  // fx = x (in reference coords r), fy = 2s, fz = -t: div = 1 + 2 - 1 = 2
  // with unit scales.
  const int n = 5, nel = 1;
  auto op = cmtbone::sem::Operators::build(n);
  const auto& x = op.rule.nodes;
  std::vector<double> fx(n * n * n), fy(fx.size()), fz(fx.size()), out(fx.size());
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        std::size_t p = i + n * (j + std::size_t(n) * k);
        fx[p] = x[i];
        fy[p] = 2.0 * x[j];
        fz[p] = -x[k];
      }
    }
  }
  cmtbone::kernels::div3(op.d.data(), fx.data(), fy.data(), fz.data(),
                         out.data(), n, nel, 1.0, 1.0, 1.0);
  for (double v : out) EXPECT_NEAR(v, 2.0, 1e-11);
}

TEST(Div3, FlopModelPositiveAndScales) {
  using cmtbone::kernels::div3_flops;
  EXPECT_GT(div3_flops(10, 1), 0);
  EXPECT_EQ(div3_flops(10, 4), 4 * div3_flops(10, 1));
}

// --- tensor-product application ---------------------------------------------

TEST(TensorApply, MatchesDirectSum) {
  const int n = 4, m = 5;
  auto a = random_vec(std::size_t(m) * n, 7);  // m x n
  std::vector<double> at(n * m);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) at[j + n * i] = a[i + m * j];
  }
  auto u = random_vec(std::size_t(n) * n * n, 8);
  std::vector<double> out(std::size_t(m) * m * m);
  std::vector<double> work(cmtbone::kernels::tensor_work_size(m, n));
  cmtbone::kernels::tensor_apply3(a.data(), at.data(), m, n, u.data(),
                                  out.data(), work.data());
  for (int c = 0; c < m; ++c) {
    for (int b = 0; b < m; ++b) {
      for (int aa = 0; aa < m; ++aa) {
        double s = 0.0;
        for (int k = 0; k < n; ++k) {
          for (int j = 0; j < n; ++j) {
            for (int i = 0; i < n; ++i) {
              s += a[aa + m * i] * a[b + m * j] * a[c + m * k] *
                   u[i + n * (j + std::size_t(n) * k)];
            }
          }
        }
        EXPECT_NEAR(out[aa + m * (b + std::size_t(m) * c)], s, 1e-12);
      }
    }
  }
}

TEST(TensorApply, DealiasRoundTripPreservesResolvedPolynomials) {
  // A degree-(n-1) tensor polynomial lives exactly in the coarse space, so
  // interpolating up and projecting back must reproduce it.
  const int n = 5;
  auto op = cmtbone::sem::Operators::build(n);
  const int m = op.m;
  const auto& x = op.rule.nodes;
  std::vector<double> u(n * n * n);
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        u[i + n * (j + std::size_t(n) * k)] =
            (1 + x[i]) * (2 - x[j] * x[j]) * (0.5 + x[k]);
      }
    }
  }
  std::vector<double> fine(std::size_t(m) * m * m), back(u.size());
  std::vector<double> work(cmtbone::kernels::tensor_work_size(m, m));
  // Interpolate up; the interpolant of a resolved polynomial evaluated back
  // on the coarse nodes (via interpolation fine->coarse, using interp_t as
  // the evaluation of coarse basis at fine nodes transposed) recovers it.
  cmtbone::kernels::tensor_apply3(op.interp.data(), op.interp_t.data(), m, n,
                                  u.data(), fine.data(), work.data());
  // The fine values must equal the polynomial evaluated at fine nodes.
  const auto& y = op.fine_rule.nodes;
  for (int k = 0; k < m; ++k) {
    for (int j = 0; j < m; ++j) {
      for (int i = 0; i < m; ++i) {
        double exact = (1 + y[i]) * (2 - y[j] * y[j]) * (0.5 + y[k]);
        EXPECT_NEAR(fine[i + m * (j + std::size_t(m) * k)], exact, 1e-11);
      }
    }
  }
  (void)back;
}

// ---- SIMD kernels and the production path: bit parity ------------------------
//
// Accumulation-order policy under test (simd_backend.hpp, DESIGN.md): every
// C(i,j) accumulates over l ascending from zero, and SIMD parallelism runs
// only across output rows i — never across the contraction. Each multiply
// and add rounds separately, so the kernels perform the same operations, in
// the same order, as the scalar mxm() and must match it BIT FOR BIT. The
// suites below assert with ASSERT_EQ on doubles, i.e. exact bit equality
// (no tolerance).

using cmtbone::kernels::Backend;
using cmtbone::kernels::kMaxDispatchN;
using cmtbone::kernels::kMinDispatchN;
using cmtbone::kernels::MxmFixedFn;
using cmtbone::kernels::SimdBackend;

std::vector<const SimdBackend*> compiled_simd_backends() {
  std::vector<const SimdBackend*> v;
  for (const SimdBackend* b : {cmtbone::kernels::simd_backend_portable(),
                               cmtbone::kernels::simd_backend_avx2(),
                               cmtbone::kernels::simd_backend_avx512()}) {
    if (b) v.push_back(b);  // ISA TUs may be compiled out or unsupported.
  }
  return v;
}

TEST(SimdParity, NonFmaBitIdenticalToScalarForEveryIsaAndN) {
  const auto backends = compiled_simd_backends();
  ASSERT_FALSE(backends.empty());
  // Row counts that are odd, prime, and off the 8/4/2 vector widths
  // exercise the whole row cascade and its scalar tail; offset=1 slides
  // every base pointer one double past the allocation start, so the
  // kernels also run from vector-misaligned addresses.
  const int n1s[] = {1, 2, 3, 5, 8, 12, 16, 17, 25};
  const int n3s[] = {1, 3, 6};
  for (const SimdBackend* bk : backends) {
    for (int n2 = kMinDispatchN; n2 <= kMaxDispatchN; ++n2) {
      MxmFixedFn f = bk->mxm_kernel(n2);
      ASSERT_NE(f, nullptr) << bk->name << " n2=" << n2;
      for (int n1 : n1s) {
        for (int n3 : n3s) {
          for (std::uint64_t seed : {11u, 97u}) {
            for (int offset : {0, 1}) {
              auto a = random_vec(std::size_t(n1) * n2 + offset, seed * n2);
              auto b =
                  random_vec(std::size_t(n2) * n3 + offset, seed * n2 + 1);
              std::vector<double> want(std::size_t(n1) * n3 + offset, -3.0);
              std::vector<double> got = want;
              cmtbone::kernels::mxm(a.data() + offset, n1, b.data() + offset,
                                    n2, want.data() + offset, n3);
              f(a.data() + offset, n1, b.data() + offset, got.data() + offset,
                n3);
              for (std::size_t p = 0; p < want.size(); ++p) {
                ASSERT_EQ(want[p], got[p])
                    << bk->name << " n1=" << n1 << " n2=" << n2
                    << " n3=" << n3 << " seed=" << seed
                    << " offset=" << offset << " index=" << p;
              }
            }
          }
        }
      }
    }
  }
}

TEST(SimdParity, AccumulateBitIdenticalToScalarTripleLoop) {
  // The particle deposit relies on mxm_acc adding each entry's products one
  // at a time in ascending l onto C's old value, exactly like the plain loop
  // below: for every row count the cascade splits differently, contraction
  // lengths around the deposit's 64-particle chunk, every compiled ISA and
  // the public entry point.
  auto backends = compiled_simd_backends();
  ASSERT_FALSE(backends.empty());
  backends.push_back(nullptr);  // kernels::mxm_acc
  for (const SimdBackend* bk : backends) {
    for (int n1 = 2; n1 <= 25; ++n1) {
      for (int n2 : {1, 2, 63, 64, 65}) {
        const int n3 = n1 * n1;
        auto a = random_vec(std::size_t(n1) * n2, 300 + n1);
        auto b = random_vec(std::size_t(n2) * n3, 400 + n2);
        std::vector<double> want = random_vec(std::size_t(n1) * n3, 500 + n2);
        std::vector<double> got = want;
        for (int j = 0; j < n3; ++j) {
          for (int l = 0; l < n2; ++l) {
            for (int i = 0; i < n1; ++i) {
              want[i + std::size_t(n1) * j] +=
                  a[i + std::size_t(n1) * l] * b[l + std::size_t(n2) * j];
            }
          }
        }
        if (bk) {
          bk->mxm_acc(a.data(), n1, b.data(), n2, got.data(), n3);
        } else {
          cmtbone::kernels::mxm_acc(a.data(), n1, b.data(), n2, got.data(),
                                    n3);
        }
        for (std::size_t p = 0; p < want.size(); ++p) {
          ASSERT_EQ(want[p], got[p]) << (bk ? bk->name : "mxm_acc")
                                     << " n1=" << n1 << " n2=" << n2
                                     << " index=" << p;
        }
      }
    }
  }
}

// Every specialized N plus two beyond the kernel table, where the production
// path falls back to the runtime mxm().
std::vector<int> parity_ns() {
  std::vector<int> ns;
  for (int n = kMinDispatchN; n <= kMaxDispatchN; ++n) ns.push_back(n);
  ns.push_back(26);
  ns.push_back(30);
  return ns;
}

TEST(DispatchParity, EveryBackendGradMatchesScalarForAllNAndDirections) {
  // grad_dispatch (the solver's only derivative path) against the kBasic
  // reference loops, every direction, bit for bit.
  using cmtbone::kernels::grad_r;
  using cmtbone::kernels::grad_s;
  using cmtbone::kernels::grad_t;
  const int nel = 3;
  for (int n : parity_ns()) {
    EXPECT_EQ(cmtbone::kernels::selected_backend(n),
              n <= kMaxDispatchN ? Backend::kBatched : Backend::kScalar)
        << "n=" << n;
    const std::size_t pts = std::size_t(n) * n * n * nel;
    auto d = random_vec(std::size_t(n) * n, 1000u + n);
    auto u = random_vec(pts, 2000u + n);
    std::vector<double> ref(pts, 0.0), got(pts, -5.0);
    for (int dir = 0; dir < 3; ++dir) {
      switch (dir) {
        case 0:
          grad_r(GradVariant::kBasic, d.data(), u.data(), ref.data(), n, nel);
          break;
        case 1:
          grad_s(GradVariant::kBasic, d.data(), u.data(), ref.data(), n, nel);
          break;
        default:
          grad_t(GradVariant::kBasic, d.data(), u.data(), ref.data(), n, nel);
      }
      std::fill(got.begin(), got.end(), -5.0);
      cmtbone::kernels::grad_dispatch(dir, d.data(), u.data(), got.data(), n,
                                      nel);
      for (std::size_t p = 0; p < pts; ++p) {
        ASSERT_EQ(ref[p], got[p]) << "n=" << n << " dir=" << dir
                                  << " point=" << p;
      }
    }
  }
}

TEST(DispatchParity, TensorApplyBitIdenticalUnderEveryBitExactBackend) {
  // tensor_apply3 (the dealiasing path) against the same three contractions
  // spelled with the runtime mxm(), bit for bit.
  for (int n : parity_ns()) {
    const int m = n + 2;  // a fine-mesh interpolation shape
    auto a = random_vec(std::size_t(m) * n, 60u + n);
    std::vector<double> at(a.size());
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        at[j + std::size_t(n) * i] = a[i + std::size_t(m) * j];
      }
    }
    auto u = random_vec(std::size_t(n) * n * n, 70u + n);
    const std::size_t m3 = std::size_t(m) * m * m;
    std::vector<double> t1(std::size_t(m) * n * n), t2(std::size_t(m) * m * n);
    std::vector<double> want(m3), got(m3, -9.0);
    cmtbone::kernels::mxm(a.data(), m, u.data(), n, t1.data(), n * n);
    for (int k = 0; k < n; ++k) {
      cmtbone::kernels::mxm(t1.data() + std::size_t(k) * m * n, m, at.data(),
                            n, t2.data() + std::size_t(k) * m * m, m);
    }
    cmtbone::kernels::mxm(t2.data(), m * m, at.data(), n, want.data(), m);

    std::vector<double> work(cmtbone::kernels::tensor_work_size(m, n));
    cmtbone::kernels::tensor_apply3(a.data(), at.data(), m, n, u.data(),
                                    got.data(), work.data());
    for (std::size_t p = 0; p < m3; ++p) {
      ASSERT_EQ(want[p], got[p]) << "n=" << n << " point=" << p;
    }
  }
}

}  // namespace
