// AVX2 kernel table: 256-bit variants of the kernels. This TU is
// compiled with -mavx2 (see src/simd/CMakeLists.txt) and its code runs only
// after runtime cpuid detection (dispatch.cc), so VEX instructions never
// execute on CPUs without AVX2. On non-x86 targets or without the flag the
// TU degrades to a nullptr table and dispatch falls back to SSE2/NEON.
#include "simd/kernels.h"
#include "simd/simd.h"

#if defined(HSGF_SIMD_X256) && !defined(HSGF_SIMD_DISABLED)

namespace hsgf::simd::internal {
namespace {

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
  static const KernelTable table = {&CompareBytes256};
  return &table;
}

}  // namespace hsgf::simd::internal

#else

namespace hsgf::simd::internal {
const KernelTable* Avx2Kernels() { return nullptr; }
}  // namespace hsgf::simd::internal

#endif
