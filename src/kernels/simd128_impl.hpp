// 128-bit (SSSE3-width) group-varint codec used by the AVX2 backend: the
// shuffle-table tricks it relies on are 16-byte pshufb operations, so the
// codec is byte-shuffle bound, not width bound, and a 256-bit version
// would buy nothing. The intersection has its own 8x8 AVX2 body in
// avx2.cpp.
//
// Only included from backend TUs compiled with at least -mssse3 (avx2.cpp
// is built with -mavx2).
#pragma once

#include <immintrin.h>

#include "kernels/gv_tables.hpp"
#include "kernels/scalar_impl.hpp"

namespace plt::kernels::detail {

inline std::size_t simd128_encode_varint_block(const std::uint32_t* values,
                                               std::size_t n,
                                               std::uint8_t* out) {
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i t1 = _mm_set1_epi32(static_cast<int>(0x800000ffu));
  const __m128i t2 = _mm_set1_epi32(static_cast<int>(0x8000ffffu));
  const __m128i t3 = _mm_set1_epi32(static_cast<int>(0x80ffffffu));
  std::size_t i = 0;
  std::size_t o = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i x = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(values + i));
    // Unsigned "x > threshold" via sign-bias: one mask per extra byte.
    const __m128i xb = _mm_xor_si128(x, bias);
    const __m128i m = _mm_add_epi32(
        _mm_add_epi32(_mm_cmpgt_epi32(xb, t1), _mm_cmpgt_epi32(xb, t2)),
        _mm_cmpgt_epi32(xb, t3));
    const __m128i lenm1 = _mm_sub_epi32(_mm_setzero_si128(), m);
    alignas(16) std::uint32_t l[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(l), lenm1);
    const std::uint8_t c = static_cast<std::uint8_t>(
        l[0] | (l[1] << 2) | (l[2] << 4) | (l[3] << 6));
    out[o++] = c;
    const __m128i packed = _mm_shuffle_epi8(
        x, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
               kGvTables.encode_shuffle[c].data())));
    // Always store 16 bytes; the group's byte budget in
    // encoded_block_bound covers it and the next group (or nothing)
    // overwrites the padding.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + o), packed);
    o += kGvTables.data_len[c];
  }
  if (i < n) {
    // Partial final group: identical to the scalar encoder's group body.
    const std::size_t control = o++;
    std::uint8_t c = 0;
    for (std::size_t j = 0; i + j < n; ++j) {
      std::uint32_t x = values[i + j];
      const unsigned len = gv_byte_len(x);
      c = static_cast<std::uint8_t>(c | ((len - 1u) << (2 * j)));
      for (unsigned b = 0; b < len; ++b) {
        out[o++] = static_cast<std::uint8_t>(x);
        x >>= 8;
      }
    }
    out[control] = c;
  }
  return o;
}

inline std::size_t simd128_decode_varint_block(const std::uint8_t* in,
                                               std::size_t in_len,
                                               std::uint32_t* out,
                                               std::size_t n) {
  std::size_t consumed = 0;
  std::size_t produced = 0;
  // Fast path: full groups with enough input slack for a 16-byte load
  // (control byte + up to 16 data bytes).
  while (n - produced >= 4 && in_len - consumed >= 17) {
    const std::uint8_t c = in[consumed];
    const __m128i data = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(in + consumed + 1));
    const __m128i vals = _mm_shuffle_epi8(
        data, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                  kGvTables.decode_shuffle[c].data())));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + produced), vals);
    consumed += 1u + kGvTables.data_len[c];
    produced += 4;
  }
  return scalar_decode_tail(in, in_len, out, n, consumed, produced);
}

}  // namespace plt::kernels::detail
