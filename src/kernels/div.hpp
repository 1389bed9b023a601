#pragma once
// Fused flux-divergence kernel: the composite operation the CMT-bone RHS
// actually needs — s_x dF/dr + s_y dG/ds + s_z dH/dt in one sweep.
//
// Computing the three directional derivatives separately (grad_r/s/t)
// streams the output three times; the fused form keeps the accumulator in
// registers and reads D rows once per point. This is the natural next
// optimization step after §V's per-derivative loop transformations;
// kernel_nsweep times both forms.

namespace cmtbone::kernels {

/// out(i,j,k) = sx * sum_l D(i,l) fx(l,j,k)
///            + sy * sum_l D(j,l) fy(i,l,k)
///            + sz * sum_l D(k,l) fz(i,j,l)       for each of nel elements.
/// `fused` selects the single-sweep form; otherwise three separate
/// derivative passes accumulate through `work` (n^3 * nel doubles of
/// scratch; allocated internally when null).
void div3(const double* d, const double* fx, const double* fy,
          const double* fz, double* out, int n, int nel, double sx, double sy,
          double sz, bool fused = true, double* work = nullptr);

/// Flops of one div3 over nel elements: three contractions plus the scaled
/// accumulation.
inline long long div3_flops(int n, int nel) {
  const long long n3 = 1LL * n * n * n;
  return (3 * 2 * n3 * n + 5 * n3) * nel;
}

}  // namespace cmtbone::kernels
