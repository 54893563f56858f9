// SSE4.2 backend. Absorbs the same 8 hash lanes as the scalar reference in
// two 128-bit halves, and shares the 128-bit group-varint / intersection
// code with AVX2 via simd128_impl.hpp. Compiled with -msse4.2 (see
// src/CMakeLists.txt); only referenced by dispatch.cpp under
// PLT_KERNELS_HAVE_SSE42.
#include <immintrin.h>

#include "kernels/backends.hpp"
#include "kernels/simd128_impl.hpp"

namespace plt::kernels {

namespace {

inline __m128i rotl13_epi32(__m128i x) {
  return _mm_or_si128(_mm_slli_epi32(x, 13), _mm_srli_epi32(x, 19));
}

std::uint64_t sse42_hash_positions(const std::uint32_t* v, std::size_t n) {
  __m128i lo = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(detail::kHashLaneSeed));
  __m128i hi = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(detail::kHashLaneSeed + 4));
  const __m128i mul = _mm_set1_epi32(static_cast<int>(detail::kHashLaneMul));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i wlo = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(v + i));
    const __m128i whi = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(v + i + 4));
    lo = rotl13_epi32(_mm_mullo_epi32(_mm_xor_si128(lo, wlo), mul));
    hi = rotl13_epi32(_mm_mullo_epi32(_mm_xor_si128(hi, whi), mul));
  }
  alignas(16) std::uint32_t lanes[8];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), lo);
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes + 4), hi);
  return detail::hash_finish(lanes, v, i, n);
}

bool sse42_equals_positions(const std::uint32_t* a, const std::uint32_t* b,
                            std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i va = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(b + i));
    if (_mm_movemask_epi8(_mm_cmpeq_epi32(va, vb)) != 0xffff) return false;
  }
  for (; i < n; ++i)
    if (a[i] != b[i]) return false;
  return true;
}

std::uint64_t sse42_sum_counts(const std::uint64_t* counts, std::size_t n) {
  __m128i acc = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    acc = _mm_add_epi64(
        acc, _mm_loadu_si128(reinterpret_cast<const __m128i*>(counts + i)));
  alignas(16) std::uint64_t parts[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(parts), acc);
  std::uint64_t sum = parts[0] + parts[1];
  for (; i < n; ++i) sum += counts[i];
  return sum;
}

std::uint32_t sse42_sum_positions(const std::uint32_t* positions,
                                  std::size_t n) {
  __m128i acc = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    acc = _mm_add_epi32(
        acc,
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(positions + i)));
  acc = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, _MM_SHUFFLE(1, 0, 3, 2)));
  acc = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, _MM_SHUFFLE(2, 3, 0, 1)));
  std::uint32_t sum = static_cast<std::uint32_t>(_mm_cvtsi128_si32(acc));
  for (; i < n; ++i) sum += positions[i];
  return sum;
}

constexpr Dispatch kSse42Dispatch = {
    Backend::kSSE42,
    "sse42",
    sse42_hash_positions,
    sse42_equals_positions,
    detail::simd128_encode_varint_block,
    detail::simd128_decode_varint_block,
    detail::simd128_intersect_sorted,
    detail::simd128_intersect_count,
    sse42_sum_counts,
    sse42_sum_positions,
};

}  // namespace

const Dispatch* sse42_table() { return &kSse42Dispatch; }

}  // namespace plt::kernels
