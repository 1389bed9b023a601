// Register-blocked SIMD mxm kernel body, compiled once per instruction-set
// translation unit (see simd_backend.hpp for the multi-TU scheme and the
// accumulation-order policy). The including TU must define, BEFORE the
// include:
//
//   CMTBONE_SIMD_NS      unique namespace for this TU (ODR isolation)
//   CMTBONE_SIMD_NAME    backend name string
//   CMTBONE_SIMD_MAXW    widest vector width in doubles: 2, 4, or 8
//
// and must be compiled with -ffp-contract=off: the kernels spell the
// accumulation as separate multiply and add, and contraction into an FMA
// would silently change their rounding and break bit-parity with the scalar
// reference. Only the compute-roof probe requests fusion, explicitly.
//
// No include guard on purpose: each TU includes this exactly once inside
// its own macro configuration.

#include <chrono>
#include <cstddef>
#include <cstring>

#include "kernels/simd_backend.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace cmtbone::kernels {
namespace CMTBONE_SIMD_NS {

// GCC/Clang generic vectors: W-wide double arithmetic at any W on any
// target — widths beyond the hardware are double-pumped by the compiler.
// Loads and stores go through memcpy, which lowers to unaligned vector
// moves; kernel extents are arbitrary so no alignment is assumed.
template <int W>
struct Vec {
  typedef double V __attribute__((vector_size(W * 8)));
  V v;

  static Vec load(const double* p) {
    Vec r;
    __builtin_memcpy(&r.v, p, sizeof(V));
    return r;
  }
  void store(double* p) const { __builtin_memcpy(p, &v, sizeof(V)); }
  static Vec zero() { return Vec{V{}}; }
  static Vec bcast(double x) { return Vec{V{} + x}; }
};

// c + a*b with two roundings — the scalar-reference order.
template <int W>
inline Vec<W> mac(Vec<W> a, Vec<W> b, Vec<W> c) {
  return Vec<W>{c.v + a.v * b.v};
}

// The compute-roof probe's multiply-add: one fused instruction where the
// TU's ISA provides it at full width, else mac().
template <int W>
inline Vec<W> probe_mac(Vec<W> a, Vec<W> b, Vec<W> c) {
#if defined(__AVX512F__)
  if constexpr (W == 8) {
    return Vec<8>{(typename Vec<8>::V)_mm512_fmadd_pd(
        (__m512d)a.v, (__m512d)b.v, (__m512d)c.v)};
  }
#endif
#if defined(__FMA__)
  if constexpr (W == 4) {
    return Vec<4>{(typename Vec<4>::V)_mm256_fmadd_pd(
        (__m256d)a.v, (__m256d)b.v, (__m256d)c.v)};
  }
#endif
  return mac(a, b, c);
}

// Rows [i0, i0 + floor((n1-i0)/W)*W) of C, W rows per vector, with a 4-wide
// column block so four C columns accumulate per sweep over A — the l loop
// is the only loop carrying the accumulation and it runs ascending, per the
// policy. N2 > 0 bakes the contraction length in; N2 == 0 reads it from
// n2 at run time. Acc starts every C entry from its current value (C += A*B)
// instead of from zero. Returns the first row not covered.
template <int W, int N2, bool Acc>
int mxm_rows(const double* __restrict a, int n1, const double* __restrict b,
             int n2, double* __restrict c, int n3, int i0) {
  using V = Vec<W>;
  const int len = N2 > 0 ? N2 : n2;
  auto start = [&](const double* cj) { return Acc ? V::load(cj) : V::zero(); };
  for (; i0 + W <= n1; i0 += W) {
    const double* ai = a + i0;
    int j = 0;
    for (; j + 4 <= n3; j += 4) {
      const double* __restrict b0 = b + std::size_t(j) * len;
      double* cj = c + std::size_t(j) * n1 + i0;
      V s0 = start(cj), s1 = start(cj + n1);
      V s2 = start(cj + 2 * std::size_t(n1));
      V s3 = start(cj + 3 * std::size_t(n1));
#pragma GCC unroll 32
      for (int l = 0; l < len; ++l) {
        const V av = V::load(ai + std::size_t(l) * n1);
        s0 = mac(av, V::bcast(b0[l]), s0);
        s1 = mac(av, V::bcast(b0[len + l]), s1);
        s2 = mac(av, V::bcast(b0[2 * len + l]), s2);
        s3 = mac(av, V::bcast(b0[3 * len + l]), s3);
      }
      s0.store(cj);
      s1.store(cj + n1);
      s2.store(cj + 2 * std::size_t(n1));
      s3.store(cj + 3 * std::size_t(n1));
    }
    for (; j < n3; ++j) {
      const double* __restrict bj = b + std::size_t(j) * len;
      double* cj = c + std::size_t(j) * n1 + i0;
      V s = start(cj);
#pragma GCC unroll 32
      for (int l = 0; l < len; ++l) {
        s = mac(V::load(ai + std::size_t(l) * n1), V::bcast(bj[l]), s);
      }
      s.store(cj);
    }
  }
  return i0;
}

// Leftover rows, scalar — same l-ascending order, so still bit-identical.
template <int N2, bool Acc>
void mxm_tail(const double* __restrict a, int n1, const double* __restrict b,
              int n2, double* __restrict c, int n3, int i0) {
  const int len = N2 > 0 ? N2 : n2;
  for (int j = 0; j < n3; ++j) {
    const double* __restrict bj = b + std::size_t(j) * len;
    for (int i = i0; i < n1; ++i) {
      double s = Acc ? c[std::size_t(j) * n1 + i] : 0.0;
#pragma GCC unroll 32
      for (int l = 0; l < len; ++l) {
        s += a[std::size_t(l) * n1 + i] * bj[l];
      }
      c[std::size_t(j) * n1 + i] = s;
    }
  }
}

// Row cascade: full-width vectors first, then narrower, then a scalar tail,
// so odd n1 (the common case — n1 is N or N^2 for odd N) keeps most rows
// vectorized.
template <int N2, bool Acc>
void mxm_cascade(const double* a, int n1, const double* b, int n2, double* c,
                 int n3) {
  int i = 0;
#if CMTBONE_SIMD_MAXW >= 8
  i = mxm_rows<8, N2, Acc>(a, n1, b, n2, c, n3, i);
#endif
#if CMTBONE_SIMD_MAXW >= 4
  i = mxm_rows<4, N2, Acc>(a, n1, b, n2, c, n3, i);
#endif
  i = mxm_rows<2, N2, Acc>(a, n1, b, n2, c, n3, i);
  if (i < n1) mxm_tail<N2, Acc>(a, n1, b, n2, c, n3, i);
}

/// C(n1,n3) = A(n1,N2) * B(N2,n3), column-major.
template <int N2>
void mxm_simd(const double* a, int n1, const double* b, double* c, int n3) {
  mxm_cascade<N2, false>(a, n1, b, N2, c, n3);
}

/// C(n1,n3) += A(n1,n2) * B(n2,n3) for any n2 >= 0: each C entry adds its
/// n2 products in ascending l, exactly like the scalar mxm_acc.
void mxm_acc_simd(const double* a, int n1, const double* b, int n2, double* c,
                  int n3) {
  mxm_cascade<0, true>(a, n1, b, n2, c, n3);
}

MxmFixedFn mxm_kernel(int n2) {
  switch (n2) {
#define CMTBONE_CASE(N) \
  case N: return &mxm_simd<N>;
    CMTBONE_CASE(2)
    CMTBONE_CASE(3)
    CMTBONE_CASE(4)
    CMTBONE_CASE(5)
    CMTBONE_CASE(6)
    CMTBONE_CASE(7)
    CMTBONE_CASE(8)
    CMTBONE_CASE(9)
    CMTBONE_CASE(10)
    CMTBONE_CASE(11)
    CMTBONE_CASE(12)
    CMTBONE_CASE(13)
    CMTBONE_CASE(14)
    CMTBONE_CASE(15)
    CMTBONE_CASE(16)
    CMTBONE_CASE(17)
    CMTBONE_CASE(18)
    CMTBONE_CASE(19)
    CMTBONE_CASE(20)
    CMTBONE_CASE(21)
    CMTBONE_CASE(22)
    CMTBONE_CASE(23)
    CMTBONE_CASE(24)
    CMTBONE_CASE(25)
#undef CMTBONE_CASE
    default: return nullptr;
  }
}

// Compute-roof probe: eight independent W-wide multiply-add chains, enough
// to cover FMA latency on two issue ports, register-resident. Reports the
// best of three short samples as GFLOP/s (2 flops per multiply-add, fused
// or not).
double measure_peak_gflops() {
  constexpr int W = CMTBONE_SIMD_MAXW;
  using V = Vec<W>;
  const V a = V::bcast(1.0 + 1e-9);
  const V b = V::bcast(1.0 - 1e-9);
  V acc[8];
  for (int u = 0; u < 8; ++u) acc[u] = V::bcast(1e-6 * (u + 1));
  constexpr long kIters = 1L << 20;
  double best = 0.0;
  double sink = 0.0;
  for (int sample = 0; sample < 3; ++sample) {
    const auto t0 = std::chrono::steady_clock::now();
    for (long it = 0; it < kIters; ++it) {
#pragma GCC unroll 8
      for (int u = 0; u < 8; ++u) acc[u] = probe_mac(a, b, acc[u]);
    }
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double flops = double(kIters) * 8.0 * W * 2.0;
    if (sec > 0.0) best = best > flops / sec ? best : flops / sec;
  }
  // Consume the accumulators through a volatile so the chains cannot be
  // elided, without taking their address (which would demote them from
  // registers to a stack slot inside the timed loop).
  for (int u = 0; u < 8; ++u) {
    for (int lane = 0; lane < W; ++lane) sink += acc[u].v[lane];
  }
  static volatile double g_probe_sink;
  g_probe_sink = sink;
  (void)g_probe_sink;
  return best / 1e9;
}

const SimdBackend* backend_table() {
  static const SimdBackend table = {CMTBONE_SIMD_NAME, &mxm_kernel,
                                    &mxm_acc_simd, &measure_peak_gflops};
  return &table;
}

}  // namespace CMTBONE_SIMD_NS
}  // namespace cmtbone::kernels
