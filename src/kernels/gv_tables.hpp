// Compile-time shuffle tables for the group-varint codec's SIMD paths.
// One 16-byte pshufb mask per control byte: `decode` expands the packed
// little-endian value bytes into four u32 slots (0x80 lanes zero-fill);
// `encode` packs the four u32s' low bytes into the variable-length stream.
#pragma once

#include <array>
#include <cstdint>

namespace plt::kernels::detail {

struct GvTables {
  std::array<std::array<std::uint8_t, 16>, 256> decode_shuffle;
  std::array<std::array<std::uint8_t, 16>, 256> encode_shuffle;
  std::array<std::uint8_t, 256> data_len;  ///< packed bytes per full group
};

constexpr GvTables make_gv_tables() {
  GvTables t{};
  for (unsigned c = 0; c < 256; ++c) {
    unsigned offset = 0;
    for (unsigned i = 0; i < 4; ++i) {
      const unsigned len = ((c >> (2 * i)) & 3u) + 1u;
      for (unsigned b = 0; b < 4; ++b)
        t.decode_shuffle[c][4 * i + b] = static_cast<std::uint8_t>(
            b < len ? offset + b : 0x80u);
      for (unsigned b = 0; b < len; ++b)
        t.encode_shuffle[c][offset + b] =
            static_cast<std::uint8_t>(4 * i + b);
      offset += len;
    }
    for (unsigned p = offset; p < 16; ++p)
      t.encode_shuffle[c][p] = 0x80u;  // beyond the packed bytes: zero
    t.data_len[c] = static_cast<std::uint8_t>(offset);
  }
  return t;
}

inline constexpr GvTables kGvTables = make_gv_tables();

/// pshufb mask that compress-stores the dwords selected by a 4-bit
/// movemask, in order — the AVX2 intersection's compaction step (one
/// lookup per 128-bit half).
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

inline constexpr std::array<std::array<std::uint8_t, 16>, 16>
    kCompressTable = make_compress_table();

}  // namespace plt::kernels::detail
