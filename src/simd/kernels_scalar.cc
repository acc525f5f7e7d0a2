// Canonical scalar kernel implementations. These are the reference
// semantics: every vector variant must produce bit-identical results
// (simd_test compares them exhaustively over width/alignment/tail cases,
// and census_differential_test compares whole censuses).
#include "simd/kernels.h"

namespace hsgf::simd::internal {

size_t LabelRunLengthScalar(const int32_t* to, const uint8_t* label, size_t n,
                            uint8_t run_label, const int32_t* members,
                            size_t num_members) {
  for (size_t i = 0; i < n; ++i) {
    if (label[i] != run_label) return i;
    const int32_t v = to[i];
    for (size_t m = 0; m < num_members; ++m) {
      if (members[m] == v) return i;
    }
  }
  return n;
}

int CompareBytesScalar(const uint8_t* a, const uint8_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

const KernelTable* ScalarKernels() {
  static const KernelTable table = {&LabelRunLengthScalar,
                                    &CompareBytesScalar};
  return &table;
}

}  // namespace hsgf::simd::internal
