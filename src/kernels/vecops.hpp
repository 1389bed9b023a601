#pragma once
// Pointwise vector kernels for the solver's non-contraction inner loops:
// the dssum multiplicity scaling, the Nekbone ax tail, the CG inner
// products, and (through elementwise) the pointwise fluxes, rhs updates and
// RK stage updates of the DG solver.
//
// These loops are memory-bound streams; the win over leaving them to the
// autovectorizer is a guaranteed vector shape (GCC generic vectors, so the
// TU vectorizes under the baseline flags with no ISA gamble) and an
// explicit accumulation-order contract:
//
//   * The elementwise ops (scale / ax tail) touch each index
//     independently — vector width cannot change a single result bit, so
//     they are unconditionally safe for the bit-identity paths.
//   * weighted_dot is a reduction, so lane-parallel accumulation IS a
//     reorder of the plain ascending loop. It commits to a fixed 4-lane
//     accumulator shape folded in a fixed order, which is deterministic and
//     machine/ISA-independent.
//
// Compiled with -ffp-contract=off (see CMakeLists): the ax tail spells
// multiply and add separately and must stay that way to match the scalar
// loop it replaces.

#include <cstddef>

namespace cmtbone::kernels {

/// x[i] *= s[i] for i in [0, count).
void pointwise_scale(double* x, const double* s, std::size_t count);

/// w[i] = h1*(w[i] + s[i]) + h2*m[i]*u[i] — the Nekbone local_ax tail,
/// in the historical scalar evaluation order (h2*m rounds first).
void ax_combine(double* w, const double* s, const double* m, const double* u,
                double h1, double h2, std::size_t count);

/// sum over i of a[i]*b[i]*w[i], in the 4-lane accumulator shape described
/// above.
double weighted_dot(const double* a, const double* b, const double* w,
                    std::size_t count);

/// out[i] = fn(in[i]...) for i in [0, count), in 2-wide generic vectors (the
/// baseline SSE2 width, so no vector crosses a call ABI) plus a scalar tail.
/// A plain loop of unknown trip count stays scalar under the baseline -O2
/// (GCC 12's very-cheap vectorizer cost model), whatever its aliasing. `fn`
/// is a generic lambda applied to both lane types, so each lane runs the
/// scalar operation sequence and the bits match the plain loop. `out` may
/// alias an input exactly (every lane group is loaded before it is stored),
/// never partially. Contraction into FMA follows the including TU's flags,
/// as for the plain loop it replaces.
template <class Fn, class... In>
inline void elementwise(double* out, std::size_t count, Fn fn, In... in) {
  typedef double V2 __attribute__((vector_size(16)));
  auto load = [](const double* p) {
    V2 v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
  };
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const V2 v = fn(load(in + i)...);
    __builtin_memcpy(out + i, &v, sizeof v);
  }
  for (; i < count; ++i) out[i] = fn(in[i]...);
}

}  // namespace cmtbone::kernels
