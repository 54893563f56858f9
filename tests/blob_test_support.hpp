// Hand-built PLT3 blobs and re-sealed shard containers for the
// hostile-input tests. A writer never emits zero or out-of-range positions,
// wrapping sums, or frames whose declared entry count disagrees with their
// payload; these helpers build exactly such bytes and seal them with
// correct CRCs, so they get past the checksums and reach the value checks
// behind them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compress/blob_format.hpp"
#include "compress/varint.hpp"
#include "util/crc32c.hpp"

namespace plt::testing {

/// One entry as raw values: the positions are written exactly as given.
struct RawEntry {
  std::vector<Pos> positions;
  Count freq = 1;
};

/// One partition frame as written: `length` is the frame-length varint and
/// `entries` the declared entry count, neither checked against `payload`.
struct RawFrame {
  std::uint64_t length = 0;
  std::uint64_t entries = 0;
  std::vector<std::uint8_t> payload;
};

/// A frame of vector length `length` holding `entries`, each written by
/// the encoder's entry writer. A test that needs bytes the writer cannot
/// produce (an over-wide or cut varint) appends them to `payload`.
inline RawFrame entry_frame(std::uint32_t length,
                            const std::vector<RawEntry>& entries) {
  RawFrame frame;
  frame.length = length;
  frame.entries = entries.size();
  for (const RawEntry& entry : entries)
    compress::put_blob_entry(frame.payload, entry.positions, entry.freq);
  return frame;
}

/// The container around `frames`, with a correct header CRC and a correct
/// CRC after every frame. `magic` lets a test write a foreign container.
inline std::vector<std::uint8_t> sealed_blob(
    Rank max_rank, const std::vector<RawFrame>& frames,
    const char (&magic)[4] = compress::kMagic) {
  std::vector<std::uint8_t> out(magic, magic + 4);
  compress::put_varint(out, max_rank);
  compress::put_varint(out, frames.size());
  compress::append_u32le(out,
                         crc32c(std::span<const std::uint8_t>(out).subspan(4)));
  for (const RawFrame& frame : frames) {
    const std::size_t begin = out.size();
    compress::put_varint(out, frame.length);
    compress::put_varint(out, frame.entries);
    compress::put_varint(out, frame.payload.size());
    out.insert(out.end(), frame.payload.begin(), frame.payload.end());
    compress::append_u32le(
        out, crc32c(std::span<const std::uint8_t>(out).subspan(begin)));
  }
  return out;
}

/// A blob as the PLT2 writer sealed it: max_rank 4 and the one entry {1}
/// of frequency 1, written as a group-varint block (a control byte of 0,
/// then the position and the frequency's low and high words, one byte
/// each) in a frame whose length varint carries PLT2's block flag, bit 27.
inline std::vector<std::uint8_t> plt2_blob() {
  const char plt2[4] = {'P', 'L', 'T', '2'};
  RawFrame frame;
  frame.length = 1 | (std::uint64_t{1} << 27);
  frame.entries = 1;
  frame.payload = {0x00, 0x01, 0x01, 0x00};
  return sealed_blob(4, {frame}, plt2);
}

/// Byte layout of one frame of a well-formed blob: its CRC covers
/// [begin, payload_end) and sits at payload_end.
struct FrameSpan {
  std::size_t begin = 0;
  std::size_t payload_begin = 0;
  std::size_t payload_end = 0;
};

inline std::vector<FrameSpan> frame_spans(std::span<const std::uint8_t> blob) {
  const compress::BlobHeader header =
      compress::read_blob_header(blob, "frame_spans");
  std::vector<FrameSpan> spans;
  std::size_t offset = header.body_offset;
  for (std::uint64_t p = 0; p < header.partitions; ++p) {
    FrameSpan span;
    span.begin = offset;
    const compress::PartitionFrame frame =
        compress::read_partition_frame(blob, offset, header, "frame_spans");
    span.payload_begin = frame.payload_begin;
    span.payload_end = frame.payload_end;
    spans.push_back(span);
    offset = frame.payload_end + 4;
  }
  return spans;
}

/// Rewrites the CRC of the frame at `span` after its payload was mutated.
inline void reseal_frame(std::vector<std::uint8_t>& blob,
                         const FrameSpan& span) {
  const std::uint32_t crc = crc32c(std::span<const std::uint8_t>(blob).subspan(
      span.begin, span.payload_end - span.begin));
  for (std::size_t i = 0; i < 4; ++i)
    blob[span.payload_end + i] = static_cast<std::uint8_t>(crc >> (8 * i));
}

/// Rewrites the trailing CRC32C of a PLM2 manifest or PLTS summary (it
/// covers everything between the magic and the CRC) after its bytes were
/// mutated, so the mutation reaches the decoder's value checks.
inline void reseal_container(std::vector<std::uint8_t>& bytes) {
  const std::size_t crc_at = bytes.size() - 4;
  const std::uint32_t crc = crc32c(
      std::span<const std::uint8_t>(bytes).subspan(4, crc_at - 4));
  for (std::size_t i = 0; i < 4; ++i)
    bytes[crc_at + i] = static_cast<std::uint8_t>(crc >> (8 * i));
}

}  // namespace plt::testing
