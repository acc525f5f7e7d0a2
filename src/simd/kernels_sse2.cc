// SSE2 kernel table. SSE2 is part of the x86-64 baseline ABI, so this TU
// needs no special compile flags — it simply compiles to nothing off x86.
#include "simd/kernels.h"
#include "simd/simd.h"

#if defined(HSGF_SIMD_X128) && !defined(HSGF_SIMD_NEON) && \
    !defined(HSGF_SIMD_DISABLED)

#include "simd/kernels128-inl.h"

namespace hsgf::simd::internal {

const KernelTable* Sse2Kernels() {
  static const KernelTable table = {&LabelRunLength128, &CompareBytes128};
  return &table;
}

}  // namespace hsgf::simd::internal

#else

namespace hsgf::simd::internal {
const KernelTable* Sse2Kernels() { return nullptr; }
}  // namespace hsgf::simd::internal

#endif
