// PLT serialization: a compact on-disk/wire format built on varints.
//
// The container is PLT2 (see blob_format.hpp for the exact layout): a
// CRC32C over the header varints plus one per partition frame, so any
// single-byte corruption, truncation or torn write is rejected before the
// data is trusted. Every frame holds group-varint block entries, the one
// subformat written and read.
//
// Because positions are gaps, the encoding *is* the compression: a k-itemset
// costs ~k bytes plus its count. round-trips exactly (tests enforce it);
// Experiment E1 reports the resulting sizes against FP-tree and raw layouts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/plt.hpp"
#include "tdb/database.hpp"

namespace plt::compress {

/// Serializes a PLT to bytes (PLT2: checksummed header + block-coded
/// partition frames).
std::vector<std::uint8_t> encode_plt(const core::Plt& plt);

/// Reconstructs a PLT from a PLT2 blob. Throws std::runtime_error on
/// malformed input (bad magic, truncation, checksum mismatch, invalid
/// vectors).
core::Plt decode_plt(std::span<const std::uint8_t> bytes);

/// Writes a blob to disk atomically: the bytes land in `path + ".tmp"`, are
/// flushed and fsync'd, then renamed over `path` — a crash mid-write leaves
/// the previous file (or nothing), never a torn blob. Throws
/// std::runtime_error on any I/O failure.
void write_blob_file(std::span<const std::uint8_t> bytes,
                     const std::string& path);

/// Reads a whole blob file; throws std::runtime_error if unreadable.
std::vector<std::uint8_t> read_blob_file(const std::string& path);

/// Raw horizontal-layout cost of the same information in a plain database
/// encoding (4 bytes per item occurrence + 8 per transaction) — the E1
/// baseline for compression ratios.
std::size_t raw_database_bytes(const tdb::Database& db);

}  // namespace plt::compress
