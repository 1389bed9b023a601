#include "kernels/tensor.hpp"

#include "kernels/mxm.hpp"

namespace cmtbone::kernels {

void tensor_apply3(const double* a, const double* at, int m, int n,
                   const double* u, double* out, double* work) {
  double* t1 = work;                                 // (m, n, n)
  double* t2 = work + std::size_t(m) * n * n;        // (m, m, n)

  // Direction 1: t1(a,j,k) = sum_i A(a,i) u(i,j,k)  ==  A * U(n, n^2).
  mxm_auto(a, m, u, n, t1, n * n);

  // Direction 2: per k-slab, t2(.,.,k) = t1(.,.,k) * A^T.
  for (int k = 0; k < n; ++k) {
    mxm_auto(t1 + std::size_t(k) * m * n, m, at, n,
             t2 + std::size_t(k) * m * m, m);
  }

  // Direction 3: out(ab, c) = sum_k t2(ab, k) A(c,k)  ==  T2(m^2, n) * A^T.
  mxm_auto(t2, m * m, at, n, out, m);
}

void dealias_roundtrip(const double* interp, const double* interp_t, int m,
                       int n, const double* u, double* fine, double* back,
                       double* work) {
  tensor_apply3(interp, interp_t, m, n, u, fine, work);
  tensor_apply3(interp_t, interp, n, m, fine, back, work);
}

}  // namespace cmtbone::kernels
