#include "kernels/dispatch.hpp"

#include <cstddef>
#include <vector>

#include "kernels/simd_backend.hpp"

namespace cmtbone::kernels {

// ---- ISA backends -----------------------------------------------------------

const SimdBackend* simd_backend_portable() {
  return detail::simd_table_portable();
}

const SimdBackend* simd_backend_avx2() {
#if defined(CMTBONE_HAVE_AVX2_TU) && (defined(__x86_64__) || defined(__i386__))
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (ok) return detail::simd_table_avx2();
#endif
  return nullptr;
}

const SimdBackend* simd_backend_avx512() {
#if defined(CMTBONE_HAVE_AVX512_TU) && \
    (defined(__x86_64__) || defined(__i386__))
  static const bool ok = __builtin_cpu_supports("avx512f");
  if (ok) return detail::simd_table_avx512();
#endif
  return nullptr;
}

const SimdBackend* simd_backend_best() {
  if (const SimdBackend* b = simd_backend_avx512()) return b;
  if (const SimdBackend* b = simd_backend_avx2()) return b;
  return simd_backend_portable();
}

const char* isa_name() { return simd_backend_best()->name; }

// ---- the contraction path ---------------------------------------------------

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar: return "scalar";
    case Backend::kBatched: return "batched";
  }
  return "?";
}

Backend selected_backend(int n) {
  return mxm_fixed_kernel(n) ? Backend::kBatched : Backend::kScalar;
}

// r: out = D * U over every element at once (U viewed as N x N^2 nel — the
// per-element output columns are independent, so one call is bit-preserving).
// s and t contract against rows of D, i.e. right-multiply by D^T: s per
// k-slab, t per element. Per output entry the accumulation runs over l
// ascending, exactly like kBasic.
void grad_dispatch(int dir, const double* d, const double* dt,
                   const double* u, double* out, int n, int nel) {
  const MxmFixedFn f = mxm_fixed_kernel(n);
  auto contract = [&](const double* a, int n1, const double* b, double* c,
                      int n3) {
    if (f) {
      f(a, n1, b, c, n3);
    } else {
      mxm(a, n1, b, n, c, n3);
    }
  };
  const std::size_t stride = std::size_t(n) * n * n;
  const std::size_t n2 = std::size_t(n) * n;
  if (dir == 0) {
    contract(d, n, u, out, int(n2) * nel);
  } else if (dir == 1) {
    for (int e = 0; e < nel; ++e) {
      for (int k = 0; k < n; ++k) {
        contract(u + e * stride + k * n2, n, dt, out + e * stride + k * n2, n);
      }
    }
  } else {
    for (int e = 0; e < nel; ++e) {
      contract(u + e * stride, int(n2), dt, out + e * stride, n);
    }
  }
}

// The public form stages D^T once per call.
void grad_dispatch(int dir, const double* d, const double* u, double* out,
                   int n, int nel) {
  if (dir == 0) {
    grad_dispatch(dir, d, nullptr, u, out, n, nel);
    return;
  }
  double dt_stack[32 * 32];
  std::vector<double> dt_heap;
  double* dt = dt_stack;
  if (n > 32) {
    dt_heap.resize(std::size_t(n) * n);
    dt = dt_heap.data();
  }
  for (int l = 0; l < n; ++l) {
    for (int j = 0; j < n; ++j) {
      dt[l + std::size_t(n) * j] = d[j + std::size_t(n) * l];
    }
  }
  grad_dispatch(dir, d, dt, u, out, n, nel);
}

}  // namespace cmtbone::kernels
