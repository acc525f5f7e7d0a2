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

// Vector splats of the member list are hoisted once per call; the census
// never exceeds emax + 1 members, so a miss on this cap means the caller is
// not the census hot loop and the scalar reference is fine.
constexpr size_t kMaxMemberSplats = 16;

size_t LabelRunLength128(const int32_t* to, const uint8_t* label, size_t n,
                         uint8_t run_label, const int32_t* members,
                         size_t num_members) {
  if (num_members > kMaxMemberSplats) {
    return LabelRunLengthScalar(to, label, n, run_label, members, num_members);
  }
  V128 member_splat[kMaxMemberSplats];
  for (size_t m = 0; m < num_members; ++m) {
    member_splat[m] = Splat32(members[m]);
  }
  const V128 run = Splat32(static_cast<int32_t>(run_label));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const V128 labels = WidenLoad4x8To32(label + i);
    V128 bad = Not128(CmpEq32(labels, run));
    const V128 ids = Load128(to + i);
    for (size_t m = 0; m < num_members; ++m) {
      bad = Or128(bad, CmpEq32(ids, member_splat[m]));
    }
    const unsigned first = FirstSetByte128(bad);
    if (first < 16) return i + first / 4;
  }
  return i + LabelRunLengthScalar(to + i, label + i, n - i, run_label,
                                  members, num_members);
}

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
