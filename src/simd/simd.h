#ifndef HSGF_SIMD_SIMD_H_
#define HSGF_SIMD_SIMD_H_

// Portable vector wrapper layer. Each kernel translation unit includes this
// header and gets the widest wrapper set its compile flags allow:
//
//   x86-64 baseline TU  -> 128-bit wrappers over SSE2   (HSGF_SIMD_X128)
//   x86-64 -mavx2 TU    -> plus 256-bit wrappers        (HSGF_SIMD_X256)
//   aarch64 TU          -> 128-bit wrappers over NEON   (HSGF_SIMD_X128)
//
// The wrappers are deliberately tiny: unaligned loads, lane splats, widening
// byte loads, equality compares, boolean combines and first-set-lane
// extraction — exactly what the kernels use. Anything a kernel needs beyond
// this belongs here, not inline in a kernel — this file is the
// only place in the tree allowed to name raw intrinsics outside the lint
// exemption list (tools/hsgf_lint.py, raw-intrinsics rule).
//
// Intentionally header-only and free of project includes: kernel TUs are
// compiled with per-file ISA flags, and pulling project headers into those
// TUs would let AVX2 codegen leak into inline functions shared with
// baseline TUs.

#include <cstdint>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define HSGF_SIMD_X128 1
#if defined(__AVX2__)
#define HSGF_SIMD_X256 1
#endif
#elif defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#define HSGF_SIMD_X128 1
#define HSGF_SIMD_NEON 1
#endif

namespace hsgf::simd {

#if defined(HSGF_SIMD_X128)

#if defined(HSGF_SIMD_NEON)
struct V128 {
  uint8x16_t raw;
};
#else
struct V128 {
  __m128i raw;
};
#endif

inline V128 Load128(const void* p) {
#if defined(HSGF_SIMD_NEON)
  return {vld1q_u8(static_cast<const uint8_t*>(p))};
#else
  return {_mm_loadu_si128(static_cast<const __m128i*>(p))};
#endif
}

inline V128 Splat32(int32_t x) {
#if defined(HSGF_SIMD_NEON)
  return {vreinterpretq_u8_s32(vdupq_n_s32(x))};
#else
  return {_mm_set1_epi32(x)};
#endif
}

// Lane-wise equality; result lanes are all-ones / all-zeros.
inline V128 CmpEq8(V128 a, V128 b) {
#if defined(HSGF_SIMD_NEON)
  return {vceqq_u8(a.raw, b.raw)};
#else
  return {_mm_cmpeq_epi8(a.raw, b.raw)};
#endif
}

inline V128 CmpEq32(V128 a, V128 b) {
#if defined(HSGF_SIMD_NEON)
  return {vreinterpretq_u8_u32(vceqq_u32(vreinterpretq_u32_u8(a.raw),
                                         vreinterpretq_u32_u8(b.raw)))};
#else
  return {_mm_cmpeq_epi32(a.raw, b.raw)};
#endif
}

inline V128 Or128(V128 a, V128 b) {
#if defined(HSGF_SIMD_NEON)
  return {vorrq_u8(a.raw, b.raw)};
#else
  return {_mm_or_si128(a.raw, b.raw)};
#endif
}

inline V128 Not128(V128 a) {
#if defined(HSGF_SIMD_NEON)
  return {vmvnq_u8(a.raw)};
#else
  return {_mm_xor_si128(a.raw, _mm_set1_epi32(-1))};
#endif
}

// Widens exactly 4 bytes at `p` into 4 uint32 lanes (no overread).
inline V128 WidenLoad4x8To32(const void* p);

// Widens the low 4 bytes of `a` (loaded as bytes 0..3) into 4 uint32 lanes.
inline V128 WidenLow4x8To32(V128 a) {
#if defined(HSGF_SIMD_NEON)
  return {vreinterpretq_u8_u32(
      vmovl_u16(vget_low_u16(vmovl_u8(vget_low_u8(a.raw)))))};
#else
  const __m128i zero = _mm_setzero_si128();
  return {_mm_unpacklo_epi16(_mm_unpacklo_epi8(a.raw, zero), zero)};
#endif
}

inline V128 WidenLoad4x8To32(const void* p) {
  uint32_t word = 0;
  std::memcpy(&word, p, 4);
  return WidenLow4x8To32(Splat32(static_cast<int32_t>(word)));
}

// Index (0..15) of the first byte lane whose high bit is set, or 16 if none.
// Compare results feed this: an all-ones lane reads as "set".
inline unsigned FirstSetByte128(V128 mask) {
#if defined(HSGF_SIMD_NEON)
  // Narrow each 16-bit pair to a nibble: bit i*4 of the scalar mirrors byte
  // i's high bits, so a set byte lane becomes a set nibble.
  const uint8x8_t nibbles =
      vshrn_n_u16(vreinterpretq_u16_u8(mask.raw), 4);
  const uint64_t bits = vget_lane_u64(vreinterpret_u64_u8(nibbles), 0);
  if (bits == 0) return 16;
  return static_cast<unsigned>(__builtin_ctzll(bits)) >> 2;
#else
  const unsigned bits = static_cast<unsigned>(_mm_movemask_epi8(mask.raw));
  if (bits == 0) return 16;
  return static_cast<unsigned>(__builtin_ctz(bits));
#endif
}

#endif  // HSGF_SIMD_X128

#if defined(HSGF_SIMD_X256)

struct V256 {
  __m256i raw;
};

inline V256 Load256(const void* p) {
  return {_mm256_loadu_si256(static_cast<const __m256i*>(p))};
}

inline V256 Splat32x8(int32_t x) { return {_mm256_set1_epi32(x)}; }

inline V256 CmpEq8x32(V256 a, V256 b) {
  return {_mm256_cmpeq_epi8(a.raw, b.raw)};
}

inline V256 CmpEq32x8(V256 a, V256 b) {
  return {_mm256_cmpeq_epi32(a.raw, b.raw)};
}

inline V256 Or256(V256 a, V256 b) { return {_mm256_or_si256(a.raw, b.raw)}; }

inline V256 Xor256(V256 a, V256 b) {
  return {_mm256_xor_si256(a.raw, b.raw)};
}

// Widens 8 bytes at `p` into 8 uint32 lanes (no overread).
inline V256 WidenLoad8x8To32(const void* p) {
  __m128i bytes = _mm_setzero_si128();
  std::memcpy(&bytes, p, 8);  // low 8 bytes; the cvt only reads those
  return {_mm256_cvtepu8_epi32(bytes)};
}

// Index (0..31) of the first byte lane whose high bit is set, or 32 if none.
inline unsigned FirstSetByte256(V256 mask) {
  const uint32_t bits =
      static_cast<uint32_t>(_mm256_movemask_epi8(mask.raw));
  if (bits == 0) return 32;
  return static_cast<unsigned>(__builtin_ctz(bits));
}

#endif  // HSGF_SIMD_X256

}  // namespace hsgf::simd

#endif  // HSGF_SIMD_SIMD_H_
