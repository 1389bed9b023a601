// AVX2+FMA backend TU: compiled with -mavx2 -mfma (plus -ffp-contract=off;
// see simd_kernels.inc.hpp). Only added to the build when the compiler
// accepts those flags; only handed out by dispatch when the CPU reports
// avx2 and fma support.

#define CMTBONE_SIMD_NS avx2
#define CMTBONE_SIMD_NAME "avx2"
#define CMTBONE_SIMD_MAXW 4
#include "kernels/simd_kernels.inc.hpp"

namespace cmtbone::kernels::detail {
const SimdBackend* simd_table_avx2() { return avx2::backend_table(); }
}  // namespace cmtbone::kernels::detail
