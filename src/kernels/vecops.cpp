#include "kernels/vecops.hpp"

namespace cmtbone::kernels {

namespace {

// 4-wide generic vectors: lowered to the widest available hardware vectors
// (double-pumped SSE2 under the baseline flags) with unaligned moves, same
// scheme as the simd_kernels TUs. Elementwise use keeps bits; the dot's
// shape is fixed at 4 lanes regardless of what the hardware provides, so
// its (reordered) result is identical on every machine.
typedef double V4 __attribute__((vector_size(32)));

// Vectors move through references, never by value: passing or returning a
// 32-byte vector by value changes the calling convention between builds with
// and without AVX (GCC's -Wpsabi note).
inline void load4(V4& v, const double* p) { __builtin_memcpy(&v, p, sizeof v); }

inline void store4(double* p, const V4& v) {
  __builtin_memcpy(p, &v, sizeof v);
}

}  // namespace

void pointwise_scale(double* x, const double* s, std::size_t count) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    V4 vx{}, vs{};
    load4(vx, x + i);
    load4(vs, s + i);
    store4(x + i, vx * vs);
  }
  for (; i < count; ++i) x[i] *= s[i];
}

void ax_combine(double* w, const double* s, const double* m, const double* u,
                double h1, double h2, std::size_t count) {
  const V4 v1 = V4{} + h1, v2 = V4{} + h2;
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    V4 vw{}, vs{}, vm{}, vu{};
    load4(vw, w + i);
    load4(vs, s + i);
    load4(vm, m + i);
    load4(vu, u + i);
    store4(w + i, v1 * (vw + vs) + (v2 * vm) * vu);
  }
  for (; i < count; ++i) {
    w[i] = h1 * (w[i] + s[i]) + h2 * m[i] * u[i];
  }
}

double weighted_dot(const double* a, const double* b, const double* w,
                    std::size_t count) {
  // Fixed shape: four independent lane accumulators, folded pairwise, then
  // the scalar tail ascending. No width dependence, no data dependence —
  // the same input always reduces through the same operation tree.
  V4 acc = V4{};
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    V4 va{}, vb{}, vw{};
    load4(va, a + i);
    load4(vb, b + i);
    load4(vw, w + i);
    acc += va * vb * vw;
  }
  double sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (; i < count; ++i) sum += a[i] * b[i] * w[i];
  return sum;
}

}  // namespace cmtbone::kernels
