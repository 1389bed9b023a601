#include "kernels/div.hpp"

#include <cstddef>
#include <vector>

#include "kernels/gradient.hpp"

namespace cmtbone::kernels {

namespace {

void div3_fused_elem(const double* __restrict d, const double* __restrict fx,
                     const double* __restrict fy, const double* __restrict fz,
                     double* __restrict out, int n, double sx, double sy,
                     double sz) {
  const std::size_t n2 = std::size_t(n) * n;
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        double ar = 0.0, as = 0.0, at = 0.0;
        const double* fx_col = fx + n * (j + std::size_t(n) * k);
        for (int l = 0; l < n; ++l) {
          ar += d[i + std::size_t(n) * l] * fx_col[l];
          as += d[j + std::size_t(n) * l] * fy[i + n * (l + std::size_t(n) * k)];
          at += d[k + std::size_t(n) * l] * fz[i + n * j + n2 * l];
        }
        out[i + n * (j + std::size_t(n) * k)] = sx * ar + sy * as + sz * at;
      }
    }
  }
}

}  // namespace

void div3(const double* d, const double* fx, const double* fy,
          const double* fz, double* out, int n, int nel, double sx, double sy,
          double sz, bool fused, double* work) {
  const std::size_t elem = std::size_t(n) * n * n;
  if (fused) {
    for (int e = 0; e < nel; ++e) {
      div3_fused_elem(d, fx + e * elem, fy + e * elem, fz + e * elem,
                      out + e * elem, n, sx, sy, sz);
    }
    return;
  }

  // Reference path: three separate derivative sweeps.
  std::vector<double> local_work;
  if (work == nullptr) {
    local_work.resize(elem * nel);
    work = local_work.data();
  }
  grad_r(GradVariant::kFusedUnrolled, d, fx, out, n, nel);
  for (std::size_t p = 0; p < elem * nel; ++p) out[p] *= sx;
  grad_s(GradVariant::kFusedUnrolled, d, fy, work, n, nel);
  for (std::size_t p = 0; p < elem * nel; ++p) out[p] += sy * work[p];
  grad_t(GradVariant::kFusedUnrolled, d, fz, work, n, nel);
  for (std::size_t p = 0; p < elem * nel; ++p) out[p] += sz * work[p];
}

}  // namespace cmtbone::kernels
