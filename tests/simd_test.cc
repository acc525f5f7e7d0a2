// Bit-identity tests for the SIMD kernel layer (src/simd/). Every ISA level
// this binary+CPU can run is compared entry-by-entry against the scalar
// reference on a width x alignment x tail matrix: run lengths straddling each
// plausible vector width (0, 1, w-1, w, w+1 for w in {4, 8, 16, 32, 64}),
// unaligned buffer starts and breaks at every position. The kernels'
// contract is bit-identity, so every comparison here is EXPECT_EQ — no
// tolerances.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "simd/dispatch.h"
#include "simd/kernels.h"

namespace hsgf::simd {
namespace {

// Widths worth straddling: one lane count per plausible vector register
// shape (SSE2/NEON process 16 labels per step, AVX2 32; 4/8 catch narrower
// unrolls; 64 catches multi-step tails).
constexpr size_t kWidths[] = {4, 8, 16, 32, 64};

// Offsets into an over-allocated buffer so kernels see misaligned starts.
constexpr size_t kOffsets[] = {0, 1, 2, 3, 5};

std::vector<IsaLevel> NonScalarLevels() {
  std::vector<IsaLevel> levels;
  for (IsaLevel level : SupportedIsaLevels()) {
    if (level != IsaLevel::kScalar) levels.push_back(level);
  }
  return levels;
}

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

// --- label_run_length -------------------------------------------------------

// Owns an over-allocated (to, label) candidate list so tests can hand
// kernels pointers at arbitrary byte offsets.
struct RunInput {
  std::vector<int32_t> to_storage;
  std::vector<uint8_t> label_storage;
  const int32_t* to = nullptr;
  const uint8_t* label = nullptr;
  size_t n = 0;
};

// Builds n candidates whose leading run (label == run_label, id not in
// members) has exactly `run` entries; entry `run` (when < n) breaks the run
// the way `break_kind` says. Deterministic per (n, run, offset) so failures
// reproduce.
enum class BreakKind { kLabel, kMember };

RunInput MakeRunInput(size_t n, size_t run, size_t offset, uint8_t run_label,
                      BreakKind break_kind,
                      const std::vector<int32_t>& members) {
  RunInput input;
  input.to_storage.assign(n + offset + 8, 0);
  input.label_storage.assign(n + offset + 8, 0);
  int32_t* to = input.to_storage.data() + offset;
  uint8_t* label = input.label_storage.data() + offset;
  for (size_t i = 0; i < n; ++i) {
    to[i] = static_cast<int32_t>(1000 + i);  // distinct, not in members
    label[i] = run_label;
  }
  if (run < n) {
    if (break_kind == BreakKind::kLabel) {
      label[run] = static_cast<uint8_t>(run_label + 1);
    } else {
      EXPECT_FALSE(members.empty()) << "member break needs members";
      to[run] = members[run % members.size()];
    }
  }
  input.to = to;
  input.label = label;
  input.n = n;
  return input;
}

TEST(SimdKernelTest, LabelRunLengthWidthTailMatrix) {
  const std::vector<int32_t> members = {7, 3, 12345, 42};
  for (IsaLevel level : SupportedIsaLevels()) {
    const KernelTable* kernels = KernelsFor(level);
    ASSERT_NE(kernels, nullptr);
    for (size_t w : kWidths) {
      for (size_t run : {size_t{0}, size_t{1}, w - 1, w, w + 1}) {
        for (size_t offset : kOffsets) {
          for (BreakKind kind : {BreakKind::kLabel, BreakKind::kMember}) {
            // n = run + 3 gives every run a tail to NOT read past; also the
            // exact-boundary case run == n (run can't break).
            for (size_t n : {run + 3, run}) {
              RunInput input =
                  MakeRunInput(n, run, offset, /*run_label=*/5, kind, members);
              const size_t want = std::min(run, n);
              const size_t got = kernels->label_run_length(
                  input.to, input.label, input.n, 5, members.data(),
                  members.size());
              EXPECT_EQ(got, want)
                  << Ctx(level, n, offset) << " run=" << run
                  << " break=" << (kind == BreakKind::kLabel ? "label"
                                                             : "member");
              // And the reference agrees (pins `want` itself).
              EXPECT_EQ(internal::LabelRunLengthScalar(
                            input.to, input.label, input.n, 5, members.data(),
                            members.size()),
                        want);
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, LabelRunLengthEmptyMembersAndEmptyInput) {
  for (IsaLevel level : SupportedIsaLevels()) {
    const KernelTable* kernels = KernelsFor(level);
    ASSERT_NE(kernels, nullptr);
    // n = 0: nothing to scan regardless of other arguments.
    EXPECT_EQ(kernels->label_run_length(nullptr, nullptr, 0, 9, nullptr, 0),
              0u) << IsaName(level);
    // No members: only the label can break the run.
    RunInput input = MakeRunInput(40, 17, 1, /*run_label=*/2,
                                  BreakKind::kLabel, {});
    EXPECT_EQ(kernels->label_run_length(input.to, input.label, input.n, 2,
                                        nullptr, 0),
              17u) << IsaName(level);
  }
}

TEST(SimdKernelTest, LabelRunLengthMatchesScalarOnRandomInputs) {
  std::mt19937_64 rng(20260808);
  const std::vector<IsaLevel> levels = NonScalarLevels();
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = rng() % 70;
    const size_t offset = rng() % 4;
    std::vector<int32_t> to_storage(n + offset + 4, 0);
    std::vector<uint8_t> label_storage(n + offset + 4, 0);
    int32_t* to = to_storage.data() + offset;
    uint8_t* label = label_storage.data() + offset;
    for (size_t i = 0; i < n; ++i) {
      to[i] = static_cast<int32_t>(rng() % 24);  // collisions with members
      label[i] = static_cast<uint8_t>(rng() % 3);
    }
    std::vector<int32_t> members(rng() % 7);
    for (int32_t& m : members) m = static_cast<int32_t>(rng() % 24);
    const uint8_t run_label = static_cast<uint8_t>(rng() % 3);
    const size_t want = internal::LabelRunLengthScalar(
        to, label, n, run_label, members.data(), members.size());
    for (IsaLevel level : levels) {
      EXPECT_EQ(KernelsFor(level)->label_run_length(
                    to, label, n, run_label, members.data(), members.size()),
                want)
          << Ctx(level, n, offset) << " trial=" << trial;
    }
  }
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
