// CRC32C (Castagnoli polynomial, reflected 0x82F63B78) — the integrity
// check behind the PLT3 blob format and the OOC checkpoint log. Software
// table implementation: blob decode already walks every byte through the
// varint decoder, so a byte-at-a-time CRC is a small constant on top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace plt {

/// CRC32C of `data`, continuing from `seed` (pass the previous return value
/// to checksum a buffer in pieces; 0 starts a fresh checksum).
std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed = 0);

/// Process-wide count of CRC verifications performed (codec, blob index,
/// checkpoint reader). Monotonic; report deltas for per-run accounting.
std::uint64_t crc32c_verifications();

/// Called by every verifier after comparing a stored checksum.
void note_crc32c_verification();

}  // namespace plt
