// AVX2 backend. The 8 hash lanes fit one ymm register exactly — this is
// why the shared hash shape is 8 lanes of u32 (see scalar_impl.hpp).
// Intersection runs its own 8x8 block compare; group-varint reuses the
// 128-bit shuffle code (simd128_impl.hpp) — it is byte-shuffle bound, not
// width bound. Compiled with -mavx2; only referenced by dispatch.cpp under
// PLT_KERNELS_HAVE_AVX2.
#include <immintrin.h>

#include "kernels/backends.hpp"
#include "kernels/simd128_impl.hpp"

namespace plt::kernels {

namespace {

inline __m256i rotl13_epi32(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi32(x, 13), _mm256_srli_epi32(x, 19));
}

std::uint64_t avx2_hash_positions(const std::uint32_t* v, std::size_t n) {
  __m256i state = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(detail::kHashLaneSeed));
  const __m256i mul =
      _mm256_set1_epi32(static_cast<int>(detail::kHashLaneMul));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i w = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(v + i));
    state = rotl13_epi32(_mm256_mullo_epi32(_mm256_xor_si256(state, w), mul));
  }
  alignas(32) std::uint32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), state);
  return detail::hash_finish(lanes, v, i, n);
}

bool avx2_equals_positions(const std::uint32_t* a, const std::uint32_t* b,
                           std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + i));
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi32(va, vb)) != -1) return false;
  }
  for (; i < n; ++i)
    if (a[i] != b[i]) return false;
  return true;
}

// 8x8 all-pairs block intersection: one ymm of each list per iteration,
// compared against all eight dword rotations of the other, so the block
// advance moves eight elements at a time — the loop-carried dependency
// (advance -> max load -> compare -> advance) costs the same per iteration
// as the 4x4 version but covers twice the elements. Matching a-lanes are
// compress-stored through the 128-bit table, one nibble of the mask per
// half. Same gallop guard and scalar tail as the 128-bit path.
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
              detail::kCompressTable[lo].data())));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + count), packed_lo);
      const __m128i packed_hi = _mm_shuffle_epi8(
          _mm256_extracti128_si256(va, 1),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(
              detail::kCompressTable[hi].data())));
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

std::uint64_t avx2_sum_counts(const std::uint64_t* counts, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    acc = _mm256_add_epi64(
        acc,
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(counts + i)));
  alignas(32) std::uint64_t parts[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(parts), acc);
  std::uint64_t sum = parts[0] + parts[1] + parts[2] + parts[3];
  for (; i < n; ++i) sum += counts[i];
  return sum;
}

std::uint32_t avx2_sum_positions(const std::uint32_t* positions,
                                 std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    acc = _mm256_add_epi32(
        acc,
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(positions + i)));
  __m128i half = _mm_add_epi32(_mm256_castsi256_si128(acc),
                               _mm256_extracti128_si256(acc, 1));
  half = _mm_add_epi32(half, _mm_shuffle_epi32(half, _MM_SHUFFLE(1, 0, 3, 2)));
  half = _mm_add_epi32(half, _mm_shuffle_epi32(half, _MM_SHUFFLE(2, 3, 0, 1)));
  std::uint32_t sum = static_cast<std::uint32_t>(_mm_cvtsi128_si32(half));
  for (; i < n; ++i) sum += positions[i];
  return sum;
}

constexpr Dispatch kAvx2Dispatch = {
    Backend::kAVX2,
    "avx2",
    avx2_hash_positions,
    avx2_equals_positions,
    detail::simd128_encode_varint_block,
    detail::simd128_decode_varint_block,
    avx2_intersect_sorted,
    avx2_intersect_count,
    avx2_sum_counts,
    avx2_sum_positions,
};

}  // namespace

const Dispatch* avx2_table() { return &kAvx2Dispatch; }

}  // namespace plt::kernels
