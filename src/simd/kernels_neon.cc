// NEON kernel table (aarch64 baseline).
#include "simd/kernels.h"
#include "simd/simd.h"

#if defined(HSGF_SIMD_NEON) && !defined(HSGF_SIMD_DISABLED)

#include "simd/kernels128-inl.h"

namespace hsgf::simd::internal {

const KernelTable* NeonKernels() {
  static const KernelTable table = {&CompareBytes128};
  return &table;
}

}  // namespace hsgf::simd::internal

#else

namespace hsgf::simd::internal {
const KernelTable* NeonKernels() { return nullptr; }
}  // namespace hsgf::simd::internal

#endif
