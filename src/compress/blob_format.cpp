#include "compress/blob_format.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "compress/varint.hpp"
#include "kernels/kernels.hpp"
#include "obs/trace.hpp"
#include "util/crc32c.hpp"

namespace plt::compress {

namespace {

[[noreturn]] void fail(const char* who, const std::string& what) {
  throw std::runtime_error(std::string(who) + ": " + what);
}

}  // namespace

void append_u32le(std::vector<std::uint8_t>& out, std::uint32_t value) {
  out.push_back(static_cast<std::uint8_t>(value & 0xff));
  out.push_back(static_cast<std::uint8_t>((value >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((value >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((value >> 24) & 0xff));
}

std::uint32_t read_u32le(std::span<const std::uint8_t> bytes,
                         std::size_t offset, const char* who) {
  if (offset + 4 > bytes.size()) fail(who, "truncated checksum");
  return static_cast<std::uint32_t>(bytes[offset]) |
         (static_cast<std::uint32_t>(bytes[offset + 1]) << 8) |
         (static_cast<std::uint32_t>(bytes[offset + 2]) << 16) |
         (static_cast<std::uint32_t>(bytes[offset + 3]) << 24);
}

BlobHeader read_blob_header(std::span<const std::uint8_t> blob,
                            const char* who) {
  if (blob.size() < 4 || std::memcmp(blob.data(), kMagicV2, 4) != 0)
    fail(who, "bad magic");
  BlobHeader header;
  std::size_t offset = 4;
  const std::uint64_t raw_max_rank = get_varint(blob, offset);
  // Format limit: alphabets beyond 2^26 are rejected — a corrupted header
  // must not trigger a multi-gigabyte bucket allocation.
  if (raw_max_rank == 0 || raw_max_rank > (1u << 26))
    fail(who, "max_rank out of range");
  header.max_rank = static_cast<Rank>(raw_max_rank);
  header.partitions = get_varint(blob, offset);

  const std::uint32_t stored = read_u32le(blob, offset, who);
  PLT_ASSERT(offset <= blob.size(), "varint cursor stays in the blob");
  const std::uint32_t actual = crc32c(blob.subspan(4, offset - 4));
  note_crc32c_verification();
  if (stored != actual) fail(who, "header checksum mismatch");
  offset += 4;
  // Each partition frame costs at least two varint bytes, so a count beyond
  // the blob size is certainly corrupt — reject before any loop trusts it.
  if (header.partitions > blob.size())
    fail(who, "partition count exceeds blob size");
  header.body_offset = offset;
  return header;
}

PartitionFrame read_partition_frame(std::span<const std::uint8_t> blob,
                                    std::size_t& offset,
                                    const BlobHeader& header,
                                    const char* who) {
  PartitionFrame frame;
  const std::size_t frame_begin = offset;
  const std::uint64_t raw_length = get_varint(blob, offset);
  if ((raw_length & kFrameBlockCoded) == 0)
    fail(who, "partition frame is not block-coded");
  const std::uint64_t length =
      raw_length & ~static_cast<std::uint64_t>(kFrameBlockCoded);
  if (length == 0 || length > header.max_rank)
    fail(who, "invalid partition length");
  frame.length = static_cast<std::uint32_t>(length);
  frame.entries = get_varint(blob, offset);

  const std::uint64_t payload_len = get_varint(blob, offset);
  if (payload_len > blob.size() - offset)
    fail(who, "partition payload runs past the blob");
  // Minimum entry footprint: one byte per value (length + 2 of them) plus
  // the group control bytes.
  const std::uint64_t min_entry_bytes =
      (frame.length + 2ull) + (frame.length + 5ull) / 4;
  if (frame.entries > payload_len / min_entry_bytes)
    fail(who, "entry count exceeds payload size");
  frame.payload_begin = offset;
  frame.payload_end = offset + payload_len;

  const std::uint32_t stored = read_u32le(blob, frame.payload_end, who);
  const std::uint32_t actual =
      crc32c(blob.subspan(frame_begin, frame.payload_end - frame_begin));
  note_crc32c_verification();
  if (stored != actual) fail(who, "partition checksum mismatch");
  return frame;
}

void decode_blob_entry(std::span<const std::uint8_t> blob,
                       std::size_t& offset, std::uint32_t length,
                       core::PosVec& v, Count& freq) {
  // One group-varint block of length positions plus the freq split lo/hi.
  v.resize(length + 2);
  const std::size_t consumed = kernels::active().decode_varint_block(
      blob.data() + offset, blob.size() - offset, v.data(), length + 2);
  if (consumed == kernels::kDecodeError)
    throw std::runtime_error("decode_blob_entry: truncated block entry");
  obs::count_kernel("kernel.decode_varint_block.calls",
                    "kernel.decode_varint_block.bytes", consumed);
  // length sizes v (the decode's *output* count, fixed by the resize
  // above); it is not produced by the call. plt-lint: allow(taint-bounds)
  freq = static_cast<Count>(v[length]) |
         (static_cast<Count>(v[length + 1]) << 32);
  v.resize(length);
  offset += consumed;
}

}  // namespace plt::compress
