// AVX2 kernel table: 256-bit variants of the census kernels. This TU is
// compiled with -mavx2 (see src/simd/CMakeLists.txt) and its code runs only
// after runtime cpuid detection (dispatch.cc), so VEX instructions never
// execute on CPUs without AVX2. On non-x86 targets or without the flag the
// TU degrades to a nullptr table and dispatch falls back to SSE2/NEON.
#include "simd/kernels.h"
#include "simd/simd.h"

#if defined(HSGF_SIMD_X256) && !defined(HSGF_SIMD_DISABLED)

namespace hsgf::simd::internal {
namespace {

constexpr size_t kMaxMemberSplats = 16;

size_t LabelRunLength256(const int32_t* to, const uint8_t* label, size_t n,
                         uint8_t run_label, const int32_t* members,
                         size_t num_members) {
  if (num_members > kMaxMemberSplats) {
    return LabelRunLengthScalar(to, label, n, run_label, members, num_members);
  }
  V256 member_splat[kMaxMemberSplats];
  for (size_t m = 0; m < num_members; ++m) {
    member_splat[m] = Splat32x8(members[m]);
  }
  const V256 run = Splat32x8(static_cast<int32_t>(run_label));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const V256 labels = WidenLoad8x8To32(label + i);
    V256 bad = Xor256(CmpEq32x8(labels, run), Splat32x8(-1));
    const V256 ids = Load256(to + i);
    for (size_t m = 0; m < num_members; ++m) {
      bad = Or256(bad, CmpEq32x8(ids, member_splat[m]));
    }
    const unsigned first = FirstSetByte256(bad);
    if (first < 32) return i + first / 4;
  }
  return i + LabelRunLengthScalar(to + i, label + i, n - i, run_label,
                                  members, num_members);
}

int CompareBytes256(const uint8_t* a, const uint8_t* b, size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const V256 diff =
        Xor256(CmpEq8x32(Load256(a + i), Load256(b + i)), Splat32x8(-1));
    const unsigned first = FirstSetByte256(diff);
    if (first < 32) {
      const size_t k = i + first;
      return a[k] < b[k] ? -1 : 1;
    }
  }
  return CompareBytesScalar(a + i, b + i, n - i);
}

}  // namespace

const KernelTable* Avx2Kernels() {
  static const KernelTable table = {&LabelRunLength256, &CompareBytes256};
  return &table;
}

}  // namespace hsgf::simd::internal

#else

namespace hsgf::simd::internal {
const KernelTable* Avx2Kernels() { return nullptr; }
}  // namespace hsgf::simd::internal

#endif
