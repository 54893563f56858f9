// The serialized-PLT container format, PLT3: blob files, written
// atomically and read whole, and the one writer and checked reader of
// their entries. The file IO lives here, apart from the codec, so that a
// reader of blob files (plt-serve) does not link the table-form encoder
// and decoder. Every section carries a CRC32C so single-byte corruption,
// truncation and torn writes are detected before any value is trusted:
//   "PLT3" | varint max_rank | varint partition_count |
//   u32le CRC32C(header varints)
//   per partition: varint length | varint entry_count |
//                  varint payload_len | payload |
//                  u32le CRC32C(framing varints + payload)
// `payload` is the entry stream: each entry is its `length` positions
// (rank gaps, paper Definition 4.1.2) and then its frequency, every value
// one LEB128 varint. Entries stay decodable at their byte offsets, which
// is what build_index's second pass relies on: it re-decodes the frames
// its first pass verified. A PLT2 blob (group-varint entries) is refused
// at its magic.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/plt.hpp"

namespace plt::compress {

inline constexpr char kMagic[4] = {'P', 'L', 'T', '3'};

/// Writes a blob to disk atomically: the bytes land in `path + ".tmp"`, are
/// flushed and fsync'd, then renamed over `path` — a crash mid-write leaves
/// the previous file (or nothing), never a torn blob. Throws
/// std::runtime_error on any I/O failure.
void write_blob_file(std::span<const std::uint8_t> bytes,
                     const std::string& path);

/// Reads a whole blob file into one buffer sized from the file; throws
/// std::runtime_error if unreadable.
std::vector<std::uint8_t> read_blob_file(const std::string& path);

/// Appends `value` little-endian (the fixed-width CRC slot).
void append_u32le(std::vector<std::uint8_t>& out, std::uint32_t value);

/// Reads a little-endian u32 at `offset`; throws std::runtime_error when it
/// would run past the end of `bytes`.
std::uint32_t read_u32le(std::span<const std::uint8_t> bytes,
                         std::size_t offset, const char* who);

struct BlobHeader {
  Rank max_rank = 0;
  std::uint64_t partitions = 0;
  std::size_t body_offset = 0;  ///< first partition frame
};

/// Parses and validates a blob header: magic, max_rank range limit and the
/// header CRC, so a corrupted header can never drive a huge allocation.
/// `who` prefixes error messages. Throws std::runtime_error.
BlobHeader read_blob_header(std::span<const std::uint8_t> blob,
                            const char* who);

struct PartitionFrame {
  std::uint32_t length = 0;
  std::uint64_t entries = 0;
  std::size_t payload_begin = 0;
  /// One past the entry stream; callers must land exactly here and then
  /// skip the 4 CRC bytes.
  std::size_t payload_end = 0;
};

/// Parses the partition frame at `offset`, advancing it to the payload
/// start. The frame CRC is verified, and the declared payload length is
/// bounds-checked against both the blob size and the minimum entry
/// footprint (length + 1 varints of at least one byte) before anything is
/// decoded. Throws std::runtime_error.
PartitionFrame read_partition_frame(std::span<const std::uint8_t> blob,
                                    std::size_t& offset,
                                    const BlobHeader& header,
                                    const char* who);

/// Appends one entry to a frame payload: each position, then `freq`, as
/// LEB128 varints.
void put_blob_entry(std::vector<std::uint8_t>& payload,
                    std::span<const Pos> positions, Count freq);

/// Decodes one entry of vector length `length` at `offset` (advanced past
/// it), reading only `payload` (a blob cut at its frame's payload end).
/// Each position varint above `max_rank` is rejected before it is narrowed
/// to Pos, so a value past 2^32 cannot wrap into range. Throws
/// std::runtime_error on a varint that runs past the payload or is longer
/// than ten bytes. Zero positions and the sum are checked by the caller
/// (for_each_checked_entry, through core::checked_sum).
void decode_blob_entry(std::span<const std::uint8_t> payload,
                       std::size_t& offset, std::uint32_t length,
                       Rank max_rank, core::PosVec& v, Count& freq);

/// The one checked entry reader behind every whole-blob consumer
/// (decode_plt, build_index, mine_from_blob). Walks the frames after
/// `header`: each frame's CRC is verified before its payload is read, each
/// entry is read only inside its frame's payload, every entry passes
/// core::checked_sum (positions >= 1, overflow-safe sum <= max_rank)
/// before anyone sees it, and each frame's entry stream must end exactly
/// at its payload end. Calls on_entry(positions, freq) for every entry in
/// stored order, then on_frame(frame) once the frame's landing check has
/// passed. Throws std::runtime_error at the first failed check; callbacks
/// may have seen earlier entries by then.
template <typename OnEntry, typename OnFrame>
void for_each_checked_entry(std::span<const std::uint8_t> blob,
                            const BlobHeader& header, const char* who,
                            OnEntry&& on_entry, OnFrame&& on_frame) {
  std::size_t offset = header.body_offset;
  core::PosVec v;
  for (std::uint64_t p = 0; p < header.partitions; ++p) {
    const PartitionFrame frame =
        read_partition_frame(blob, offset, header, who);
    const auto payload = blob.first(frame.payload_end);
    for (std::uint64_t e = 0; e < frame.entries; ++e) {
      Count freq = 0;
      decode_blob_entry(payload, offset, frame.length, header.max_rank, v,
                        freq);
      if (core::checked_sum(v, header.max_rank) == 0)
        throw std::runtime_error(std::string(who) +
                                 ": invalid position vector");
      on_entry(std::span<const Pos>(v), freq);
    }
    if (offset != frame.payload_end)
      throw std::runtime_error(std::string(who) +
                               ": partition payload length mismatch");
    on_frame(frame);
    offset = frame.payload_end + 4;  // CRC verified by the frame reader
  }
}

}  // namespace plt::compress
