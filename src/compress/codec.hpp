// PLT serialization: a compact on-disk/wire format built on varints.
//
// The container is PLT3 (see blob_format.hpp for the exact layout): a
// CRC32C over the header varints plus one per partition frame, so any
// single-byte corruption, truncation or torn write is rejected before the
// data is trusted. Every entry is its positions and then its frequency,
// each one LEB128 varint.
//
// Because positions are gaps, the encoding *is* the compression: a k-itemset
// costs ~k bytes plus its count. It round-trips exactly (tests enforce it);
// Experiment E1 reports the resulting sizes against FP-tree and raw layouts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "compress/blob_format.hpp"  // write_blob_file, read_blob_file
#include "core/plt.hpp"
#include "tdb/database.hpp"

namespace plt::compress {

/// Serializes a PLT to bytes (PLT3: checksummed header + one checksummed
/// frame of LEB128 entries per vector length).
std::vector<std::uint8_t> encode_plt(const core::Plt& plt);

/// Reconstructs a PLT from a PLT3 blob. Throws std::runtime_error on
/// malformed input (bad magic, truncation, checksum mismatch, invalid
/// vectors).
core::Plt decode_plt(std::span<const std::uint8_t> bytes);

/// Raw horizontal-layout cost of the same information in a plain database
/// encoding (4 bytes per item occurrence + 8 per transaction) — the E1
/// baseline for compression ratios.
std::size_t raw_database_bytes(const tdb::Database& db);

}  // namespace plt::compress
