#include "util/crc32c.hpp"

#include <array>

namespace plt {

namespace {

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = make_table();

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (const std::uint8_t byte : data)
    crc = (crc >> 8) ^ kTable[(crc ^ byte) & 0xffu];
  return ~crc;
}

}  // namespace plt
