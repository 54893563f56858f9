// AVX2 backend: the sorted intersection as an 8x8 block compare.
// Compiled with -mavx2; only referenced by dispatch.cpp under
// PLT_KERNELS_HAVE_AVX2.
#include <immintrin.h>

#include <array>
#include <cstdint>

#include "kernels/backends.hpp"
#include "kernels/scalar_impl.hpp"

namespace plt::kernels {

namespace {

/// pshufb mask that compress-stores the dwords selected by a 4-bit
/// movemask, in order — the intersection's compaction step (one lookup per
/// 128-bit half).
constexpr std::array<std::array<std::uint8_t, 16>, 16>
make_compress_table() {
  std::array<std::array<std::uint8_t, 16>, 16> t{};
  for (unsigned mask = 0; mask < 16; ++mask) {
    unsigned out = 0;
    for (unsigned lane = 0; lane < 4; ++lane) {
      if ((mask >> lane) & 1u) {
        for (unsigned b = 0; b < 4; ++b)
          t[mask][4 * out + b] = static_cast<std::uint8_t>(4 * lane + b);
        ++out;
      }
    }
    for (unsigned p = 4 * out; p < 16; ++p)
      t[mask][p] = 0x80u;
  }
  return t;
}

constexpr std::array<std::array<std::uint8_t, 16>, 16> kCompressTable =
    make_compress_table();

// 8x8 all-pairs block intersection: one ymm of each list per iteration,
// compared against all eight dword rotations of the other, so the block
// advance moves eight elements at a time — the loop-carried dependency
// (advance -> max load -> compare -> advance) costs the same per iteration
// as a 4x4 128-bit block compare but covers twice the elements. Matching a-lanes are
// compress-stored through the 128-bit table, one nibble of the mask per
// half. Same gallop guard and merge tail as the scalar reference.
std::size_t avx2_intersect_impl(const std::uint32_t* a, std::size_t na,
                                const std::uint32_t* b, std::size_t nb,
                                std::uint32_t* out) {
  if (na == 0 || nb == 0) return 0;
  if (na > nb) {
    const std::uint32_t* tp = a;
    a = b;
    b = tp;
    const std::size_t tn = na;
    na = nb;
    nb = tn;
  }
  if (nb / na >= detail::kGallopRatio)
    return detail::gallop_intersect(a, na, b, nb, out);

  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  const __m256i rot2 = _mm256_setr_epi32(2, 3, 4, 5, 6, 7, 0, 1);
  const __m256i rot3 = _mm256_setr_epi32(3, 4, 5, 6, 7, 0, 1, 2);
  const __m256i rot4 = _mm256_setr_epi32(4, 5, 6, 7, 0, 1, 2, 3);
  const __m256i rot5 = _mm256_setr_epi32(5, 6, 7, 0, 1, 2, 3, 4);
  const __m256i rot6 = _mm256_setr_epi32(6, 7, 0, 1, 2, 3, 4, 5);
  const __m256i rot7 = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);

  std::size_t i = 0, j = 0, count = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    __m256i cmp = _mm256_cmpeq_epi32(va, vb);
    cmp = _mm256_or_si256(
        cmp, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot1)));
    cmp = _mm256_or_si256(
        cmp, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot2)));
    cmp = _mm256_or_si256(
        cmp, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot3)));
    cmp = _mm256_or_si256(
        cmp, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot4)));
    cmp = _mm256_or_si256(
        cmp, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot5)));
    cmp = _mm256_or_si256(
        cmp, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot6)));
    cmp = _mm256_or_si256(
        cmp, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot7)));
    const unsigned mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(cmp)));
    if (out != nullptr) {
      const unsigned lo = mask & 0xfu;
      const unsigned hi = mask >> 4;
      const __m128i packed_lo = _mm_shuffle_epi8(
          _mm256_castsi256_si128(va),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(
              kCompressTable[lo].data())));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + count), packed_lo);
      const __m128i packed_hi = _mm_shuffle_epi8(
          _mm256_extracti128_si256(va, 1),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(
              kCompressTable[hi].data())));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(
                           out + count +
                           static_cast<unsigned>(__builtin_popcount(lo))),
                       packed_hi);
    }
    count += static_cast<unsigned>(__builtin_popcount(mask));
    const std::uint32_t amax = a[i + 7];
    const std::uint32_t bmax = b[j + 7];
    i += static_cast<std::size_t>(amax <= bmax) * 8;
    j += static_cast<std::size_t>(bmax <= amax) * 8;
  }
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

std::size_t avx2_intersect_sorted(const std::uint32_t* a, std::size_t na,
                                  const std::uint32_t* b, std::size_t nb,
                                  std::uint32_t* out) {
  return avx2_intersect_impl(a, na, b, nb, out);
}

std::size_t avx2_intersect_count(const std::uint32_t* a, std::size_t na,
                                 const std::uint32_t* b, std::size_t nb) {
  return avx2_intersect_impl(a, na, b, nb, nullptr);
}

constexpr Dispatch kAvx2Dispatch = {
    Backend::kAVX2,
    "avx2",
    avx2_intersect_sorted,
    avx2_intersect_count,
};

}  // namespace

const Dispatch* avx2_table() { return &kAvx2Dispatch; }

}  // namespace plt::kernels
