// Portable SIMD backend: baseline compile flags, 2-wide generic vectors
// (SSE2 on x86; double-pumped scalar elsewhere). Always compiled, always
// runnable — the fallback when the ISA TUs are disabled or the CPU lacks
// them. No hardware FMA is assumed, so the roof probe times separate
// multiply and add.

#define CMTBONE_SIMD_NS portable
#define CMTBONE_SIMD_NAME "portable"
#define CMTBONE_SIMD_MAXW 2
#include "kernels/simd_kernels.inc.hpp"

namespace cmtbone::kernels::detail {
const SimdBackend* simd_table_portable() { return portable::backend_table(); }
}  // namespace cmtbone::kernels::detail
