// Bit-identity tests for the SIMD kernel layer (src/simd/). Every ISA level
// this binary+CPU can run is compared entry-by-entry against the scalar
// reference on a width x alignment x tail matrix: lengths straddling each
// plausible vector width (0, 1, w-1, w, w+1 for w in {4, 8, 16, 32, 64}),
// unaligned buffer starts and differences at every position. The kernels'
// contract is bit-identity, so every comparison here is EXPECT_EQ — no
// tolerances.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "simd/dispatch.h"
#include "simd/kernels.h"

namespace hsgf::simd {
namespace {

// Widths worth straddling: one lane count per plausible vector register
// shape (SSE2/NEON compare 16 bytes per step, AVX2 32; 4/8 catch narrower
// unrolls; 64 catches multi-step tails).
constexpr size_t kWidths[] = {4, 8, 16, 32, 64};

// Offsets into an over-allocated buffer so kernels see misaligned starts.
constexpr size_t kOffsets[] = {0, 1, 2, 3, 5};

std::string Ctx(IsaLevel level, size_t n, size_t offset) {
  return std::string("isa=") + IsaName(level) + " n=" + std::to_string(n) +
         " offset=" + std::to_string(offset);
}

TEST(SimdDispatchTest, ScalarAlwaysSupported) {
  const std::vector<IsaLevel>& levels = SupportedIsaLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.back(), IsaLevel::kScalar);
  EXPECT_NE(KernelsFor(IsaLevel::kScalar), nullptr);
  // Every advertised level must resolve to a table.
  for (IsaLevel level : levels) {
    EXPECT_NE(KernelsFor(level), nullptr) << IsaName(level);
  }
  // The detected level leads the list and is what dispatch starts on.
  EXPECT_EQ(levels.front(), DetectedIsa());
}

TEST(SimdDispatchTest, KernelsForRejectsUnsupportedLevels) {
  const std::vector<IsaLevel>& levels = SupportedIsaLevels();
  for (IsaLevel level : {IsaLevel::kScalar, IsaLevel::kSse2, IsaLevel::kAvx2,
                         IsaLevel::kNeon}) {
    const bool supported =
        std::find(levels.begin(), levels.end(), level) != levels.end();
    EXPECT_EQ(KernelsFor(level) != nullptr, supported) << IsaName(level);
  }
}

TEST(SimdDispatchTest, ForceIsaPinsAndRestores) {
  const IsaLevel before = ActiveIsa();
  const IsaLevel pinned = ForceIsa(IsaLevel::kScalar);
  EXPECT_EQ(pinned, IsaLevel::kScalar);
  EXPECT_EQ(ActiveIsa(), IsaLevel::kScalar);
  // The active table must now be the scalar one (pointer identity).
  EXPECT_EQ(&ActiveKernels(), KernelsFor(IsaLevel::kScalar));
  const IsaLevel restored = ForceIsa(before);
  EXPECT_EQ(restored, before);
  EXPECT_EQ(ActiveIsa(), before);
}

// --- compare_bytes ----------------------------------------------------------

int Sign(int v) { return (v > 0) - (v < 0); }

TEST(SimdKernelTest, CompareBytesEqualAndDifferAtEveryPosition) {
  for (IsaLevel level : SupportedIsaLevels()) {
    const KernelTable* kernels = KernelsFor(level);
    ASSERT_NE(kernels, nullptr);
    for (size_t w : kWidths) {
      for (size_t n : {size_t{0}, size_t{1}, w - 1, w, w + 1}) {
        for (size_t offset : kOffsets) {
          std::vector<uint8_t> a_storage(n + offset + 8, 0xab);
          std::vector<uint8_t> b_storage(n + offset + 8, 0xab);
          uint8_t* a = a_storage.data() + offset;
          uint8_t* b = b_storage.data() + offset;
          EXPECT_EQ(kernels->compare_bytes(a, b, n), 0)
              << Ctx(level, n, offset);
          for (size_t pos = 0; pos < n; ++pos) {
            b[pos] = 0xac;  // a < b at pos
            EXPECT_EQ(Sign(kernels->compare_bytes(a, b, n)), -1)
                << Ctx(level, n, offset) << " pos=" << pos;
            EXPECT_EQ(Sign(kernels->compare_bytes(b, a, n)), 1)
                << Ctx(level, n, offset) << " pos=" << pos;
            // The reference must say the same (memcmp semantics).
            EXPECT_EQ(Sign(internal::CompareBytesScalar(a, b, n)),
                      Sign(std::memcmp(a, b, n)));
            b[pos] = 0xab;
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, CompareBytesFirstDifferenceWinsOverLaterOnes) {
  // A later, opposite-direction difference must not leak into the result.
  for (IsaLevel level : SupportedIsaLevels()) {
    const KernelTable* kernels = KernelsFor(level);
    for (size_t n : {size_t{2}, size_t{17}, size_t{33}, size_t{64}}) {
      std::vector<uint8_t> a(n, 0x10), b(n, 0x10);
      a[0] = 0x20;     // a > b at byte 0
      a[n - 1] = 0x00; // a < b at the last byte — must be ignored
      b[n - 1] = 0xff;
      EXPECT_EQ(Sign(kernels->compare_bytes(a.data(), b.data(), n)), 1)
          << Ctx(level, n, 0);
    }
  }
}

}  // namespace
}  // namespace hsgf::simd
