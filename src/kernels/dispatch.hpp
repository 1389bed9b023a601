#pragma once
// The solver's one tensor-contraction path.
//
// Every derivative the solver takes runs the element-batched explicit-SIMD
// kernels of simd_backend.hpp: the r-direction contracts all elements in one
// call, and s/t contract against D^T (passed in by the solver, staged per
// call otherwise). The code makes two choices, both from things it can
// observe and neither a user option:
//
//   * instruction set — the widest compiled-in TU this CPU supports
//     (AVX-512 → AVX2 → portable);
//   * contraction length — n ∈ [2,25] has a compiled kernel; any other n
//     runs the runtime mxm() with the same contraction shapes.
//
// Both keep the scalar accumulation order and round each multiply and add
// separately, so every result is bit-identical to the scalar reference
// (GradVariant::kBasic / mxm). See simd_backend.hpp and DESIGN.md.

#include "kernels/mxm.hpp"

namespace cmtbone::kernels {

/// What runs for a contraction length: the SIMD kernels ("batched") or the
/// runtime mxm() fallback ("scalar").
enum class Backend {
  kScalar,
  kBatched,
};

inline constexpr int kMinDispatchN = 2;
inline constexpr int kMaxDispatchN = 25;

const char* backend_name(Backend b);

/// Name of the widest SIMD instruction set this machine runs
/// ("avx512" | "avx2" | "portable") — compiled-in AND CPU-supported.
const char* isa_name();

/// kBatched for n ∈ [kMinDispatchN, kMaxDispatchN], else kScalar.
Backend selected_backend(int n);

/// One directional derivative (dir: 0 = r, 1 = s, 2 = t) over nel elements,
/// bit-identical to grad_r/s/t(GradVariant::kBasic, ...).
void grad_dispatch(int dir, const double* d, const double* u, double* out,
                   int n, int nel);

/// The same derivative with D^T (`dt`, laid out as sem::Operators::dt)
/// supplied by the caller, so repeated s/t calls skip restaging it; `dt` is
/// unused for dir 0. The solver's per-block entry point.
void grad_dispatch(int dir, const double* d, const double* dt,
                   const double* u, double* out, int n, int nel);

}  // namespace cmtbone::kernels
