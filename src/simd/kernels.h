#ifndef HSGF_SIMD_KERNELS_H_
#define HSGF_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "simd/dispatch.h"

namespace hsgf::simd {

// The vectorized primitives the census hot loops are written against. Every
// entry has one canonical scalar definition (kernels_scalar.cc) and optional
// per-ISA variants selected at runtime; all variants are bit-identical by
// contract — same results, no reordering that a caller could observe
// (comparisons return positions, not masks).
struct KernelTable {
  // Length of the leading label run: the number of consecutive entries at
  // the front of (to[i], label[i]), i < n, with label[i] == run_label and
  // to[i] not equal to any of members[0..num_members). This is the census
  // grouping scan — `members` is the current subgraph's node list (at most
  // emax + 1 entries), so candidates already inside the subgraph break the
  // run exactly like a label mismatch does.
  size_t (*label_run_length)(const int32_t* to, const uint8_t* label,
                             size_t n, uint8_t run_label,
                             const int32_t* members, size_t num_members);

  // memcmp semantics on byte strings of equal length n: <0, 0, >0 as a
  // compares lexicographically below, equal to, or above b. Used for the
  // canonical descending encoding-block sort (an explicit kernel because
  // GCC's -O3 bound analysis misfires on inlined std::lexicographical
  // compares over vector<uint8_t>; see encoding.cc).
  int (*compare_bytes)(const uint8_t* a, const uint8_t* b, size_t n);
};

// Table for the currently active ISA level (see dispatch.h). The pointer
// identity changes only through ForceIsa.
const KernelTable& ActiveKernels();

// Table for a specific level, or nullptr if this binary/CPU cannot run it.
// Lets tests pin both sides of a scalar-vs-vector comparison without
// touching the process-global active level.
const KernelTable* KernelsFor(IsaLevel level);

// Convenience wrappers over ActiveKernels(); call sites that dispatch many
// times per microsecond should hoist `const KernelTable& k = ActiveKernels()`
// instead.
inline size_t LabelRunLength(const int32_t* to, const uint8_t* label,
                             size_t n, uint8_t run_label,
                             const int32_t* members, size_t num_members) {
  return ActiveKernels().label_run_length(to, label, n, run_label, members,
                                          num_members);
}
inline int CompareBytes(const uint8_t* a, const uint8_t* b, size_t n) {
  return ActiveKernels().compare_bytes(a, b, n);
}

namespace internal {

// Scalar reference implementations, exposed so per-ISA tables can borrow
// entries they have no profitable vector form for, and so tests can call
// the reference directly.
size_t LabelRunLengthScalar(const int32_t* to, const uint8_t* label, size_t n,
                            uint8_t run_label, const int32_t* members,
                            size_t num_members);
int CompareBytesScalar(const uint8_t* a, const uint8_t* b, size_t n);

const KernelTable* ScalarKernels();  // always available
const KernelTable* Sse2Kernels();  // nullptr unless compiled for x86-64
const KernelTable* Avx2Kernels();  // nullptr unless built with AVX2 support
const KernelTable* NeonKernels();  // nullptr unless compiled for aarch64

}  // namespace internal

}  // namespace hsgf::simd

#endif  // HSGF_SIMD_KERNELS_H_
