// AVX-512 backend TU: compiled with -mavx512f (plus -ffp-contract=off; see
// simd_kernels.inc.hpp). Only added to the build when the compiler accepts
// the flag; only handed out by dispatch when the CPU reports avx512f.

#define CMTBONE_SIMD_NS avx512
#define CMTBONE_SIMD_NAME "avx512"
#define CMTBONE_SIMD_MAXW 8
#include "kernels/simd_kernels.inc.hpp"

namespace cmtbone::kernels::detail {
const SimdBackend* simd_table_avx512() { return avx512::backend_table(); }
}  // namespace cmtbone::kernels::detail
