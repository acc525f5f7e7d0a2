#ifndef HSGF_SIMD_KERNELS128_INL_H_
#define HSGF_SIMD_KERNELS128_INL_H_

// Generic 128-bit kernel bodies written against the simd.h wrapper API, so
// the SSE2 and NEON translation units compile the same logic against their
// native vector types. Include only from kernel TUs (after simd.h has
// defined HSGF_SIMD_X128); everything here has internal linkage.

#include <cstddef>
#include <cstdint>

#include "simd/kernels.h"
#include "simd/simd.h"

#if !defined(HSGF_SIMD_X128)
#error "kernels128-inl.h requires a 128-bit wrapper target"
#endif

namespace hsgf::simd::internal {
namespace {

int CompareBytes128(const uint8_t* a, const uint8_t* b, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const V128 diff = Not128(CmpEq8(Load128(a + i), Load128(b + i)));
    const unsigned first = FirstSetByte128(diff);
    if (first < 16) {
      const size_t k = i + first;
      return a[k] < b[k] ? -1 : 1;
    }
  }
  return CompareBytesScalar(a + i, b + i, n - i);
}

}  // namespace
}  // namespace hsgf::simd::internal

#endif  // HSGF_SIMD_KERNELS128_INL_H_
