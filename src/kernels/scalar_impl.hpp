// Scalar reference implementations, shared as inline functions so the AVX2
// backend reuses them verbatim for tails and small inputs — the surest way
// to keep every backend bit-identical to the reference (contract rule #1 in
// kernels.hpp). These are deliberately straight-line, branch-light loops:
// they are the differential anchor AND the production path on non-x86.
#pragma once

#include "kernels/kernels.hpp"

namespace plt::kernels::detail {

// ---- sorted intersection -------------------------------------------------

/// Size ratio beyond which every backend switches from merging to galloping
/// binary search over the larger list.
inline constexpr std::size_t kGallopRatio = 32;

inline std::size_t gallop_lower_bound(const std::uint32_t* data,
                                      std::size_t lo, std::size_t size,
                                      std::uint32_t key) {
  std::size_t step = 1;
  std::size_t hi = lo;
  while (hi < size && data[hi] < key) {
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  if (hi > size) hi = size;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (data[mid] < key)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

/// Galloping intersection: `small` iterated, `large` searched. `out` may be
/// null (count-only). Output order follows `small`, which is ascending, so
/// the result is the canonical sorted intersection either way.
inline std::size_t gallop_intersect(const std::uint32_t* small_v,
                                    std::size_t ns,
                                    const std::uint32_t* large_v,
                                    std::size_t nl, std::uint32_t* out) {
  std::size_t count = 0;
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < ns; ++i) {
    cursor = gallop_lower_bound(large_v, cursor, nl, small_v[i]);
    if (cursor == nl) break;
    if (large_v[cursor] == small_v[i]) {
      if (out != nullptr) out[count] = small_v[i];
      ++count;
      ++cursor;
    }
  }
  return count;
}

inline std::size_t scalar_intersect_sorted(const std::uint32_t* a,
                                           std::size_t na,
                                           const std::uint32_t* b,
                                           std::size_t nb,
                                           std::uint32_t* out) {
  if (na == 0 || nb == 0) return 0;
  if (na > nb) {
    const std::uint32_t* t = a;
    a = b;
    b = t;
    const std::size_t tn = na;
    na = nb;
    nb = tn;
  }
  if (nb / na >= kGallopRatio) return gallop_intersect(a, na, b, nb, out);
  std::size_t i = 0, j = 0, count = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      if (out != nullptr) out[count] = a[i];
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

inline std::size_t scalar_intersect_count(const std::uint32_t* a,
                                          std::size_t na,
                                          const std::uint32_t* b,
                                          std::size_t nb) {
  return scalar_intersect_sorted(a, na, b, nb, nullptr);
}

}  // namespace plt::kernels::detail
