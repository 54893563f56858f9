// CRC32C (Castagnoli polynomial, reflected 0x82F63B78) — the integrity
// check behind the PLT3 blob format, the OOC checkpoint log and the shard
// manifest and summaries. Software table implementation: blob decode
// already walks every byte through the varint decoder, so a byte-at-a-time
// CRC is a small constant on top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace plt {

/// CRC32C of `data`, continuing from `seed` (pass the previous return value
/// to checksum a buffer in pieces; 0 starts a fresh checksum).
std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed = 0);

}  // namespace plt
