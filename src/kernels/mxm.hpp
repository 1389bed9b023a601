#pragma once
// Small-matrix multiply, the workhorse of the spectral element solver.
//
// Nek5000's `mxm(a,n1,b,n2,c,n3)` computes C = A*B for column-major
// matrices A(n1,n2), B(n2,n3), C(n1,n3). The derivative, dealiasing, and
// Nekbone stiffness kernels are all expressed through it (paper §IV-V).

#include <cstddef>

namespace cmtbone::kernels {

/// C(n1,n3) = A(n1,n2) * B(n2,n3), column-major, C overwritten.
void mxm(const double* a, int n1, const double* b, int n2, double* c, int n3);

/// C += A * B (accumulating form; the particle deposit's contraction). Every
/// C entry adds its n2 products one at a time in ascending l onto its old
/// value, with separate multiply and add roundings — the scalar triple
/// loop's order, bit for bit — on the widest SIMD backend, vectorized over
/// rows of C. n2 is a run-time length (any n2 >= 0).
void mxm_acc(const double* a, int n1, const double* b, int n2, double* c,
             int n3);

// --- fixed-N microkernels ----------------------------------------------------
// The contraction length n2 is the polynomial order N in every tensor
// contraction of the solver (paper range 5..25), so a compile-time-N fast
// path pays everywhere: the inner accumulation fully unrolls and C stays in
// vector registers. These are the explicit-SIMD kernels of simd_backend.hpp
// for the widest instruction set this CPU runs. Accumulation order over l is
// ascending with separate multiply and add roundings, so they are
// bit-identical to mxm().

/// Signature of a fixed-N2 kernel (a, n1, b, c, n3).
using MxmFixedFn = void (*)(const double*, int, const double*, double*, int);

/// Kernel lookup, done once per size by callers that loop: returns the
/// specialized kernel for contraction length n2, or nullptr when n2 is
/// outside the specialized range (2..25).
MxmFixedFn mxm_fixed_kernel(int n2);

/// mxm() routed through the fixed-N kernels, falling back to the runtime
/// loop for unspecialized sizes. Bit-identical to mxm() either way.
inline void mxm_auto(const double* a, int n1, const double* b, int n2,
                     double* c, int n3) {
  if (MxmFixedFn f = mxm_fixed_kernel(n2)) {
    f(a, n1, b, c, n3);
  } else {
    mxm(a, n1, b, n2, c, n3);
  }
}

/// Flop count of one mxm call (multiplies + adds).
inline long long mxm_flops(int n1, int n2, int n3) {
  return 2LL * n1 * n2 * n3;
}

}  // namespace cmtbone::kernels
