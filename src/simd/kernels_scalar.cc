// Canonical scalar kernel implementations. These are the reference
// semantics: every vector variant must produce bit-identical results
// (simd_test compares them exhaustively over width/alignment/tail cases,
// and census_differential_test compares whole censuses, whose encodings
// the kernels sort).
#include "simd/kernels.h"

namespace hsgf::simd::internal {

int CompareBytesScalar(const uint8_t* a, const uint8_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

const KernelTable* ScalarKernels() {
  static const KernelTable table = {&CompareBytesScalar};
  return &table;
}

}  // namespace hsgf::simd::internal
