#include "compress/blob_format.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "compress/varint.hpp"
#include "util/crc32c.hpp"
#include "util/failpoint.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace plt::compress {

namespace {

[[noreturn]] void fail(const char* who, const std::string& what) {
  throw std::runtime_error(std::string(who) + ": " + what);
}

}  // namespace

void write_blob_file(std::span<const std::uint8_t> bytes,
                     const std::string& path) {
  // Temp file + fsync + rename: a crash (or injected fault) at any point
  // leaves either the old file or the complete new one, never a torn blob.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr)
    throw std::runtime_error("write_blob_file: cannot open " + tmp);
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
#if defined(__unix__) || defined(__APPLE__)
  const bool synced = fsync(fileno(f)) == 0;
#else
  const bool synced = true;
#endif
  std::fclose(f);
  if (written != bytes.size() || !flushed || !synced) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_blob_file: short write to " + tmp);
  }
  // A fault here models a crash after the data hit disk but before the
  // rename: the destination is untouched and the temp file is left behind.
  PLT_FAILPOINT("blob.write_file");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_blob_file: cannot rename into " + path);
  }
}

std::vector<std::uint8_t> read_blob_file(const std::string& path) {
  PLT_FAILPOINT("blob.read_file");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    throw std::runtime_error("read_blob_file: cannot open " + path);
  // One buffer of the file's size, so a served blob's bytes cost no
  // growth slack; a file that changes size meanwhile is read as found.
  long size = 0;
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::ftell(f);
  std::rewind(f);
  std::vector<std::uint8_t> bytes(size > 0 ? static_cast<std::size_t>(size)
                                           : 0);
  bytes.resize(bytes.empty() ? 0
                             : std::fread(bytes.data(), 1, bytes.size(), f));
  std::uint8_t tail[4096];
  for (std::size_t got; (got = std::fread(tail, 1, sizeof(tail), f)) > 0;)
    bytes.insert(bytes.end(), tail, tail + got);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed)
    throw std::runtime_error("read_blob_file: read error on " + path);
  return bytes;
}

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
  if (blob.size() < 4 || std::memcmp(blob.data(), kMagic, 4) != 0)
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
  const std::uint64_t length = get_varint(blob, offset);
  if (length == 0 || length > header.max_rank)
    fail(who, "invalid partition length");
  frame.length = static_cast<std::uint32_t>(length);
  frame.entries = get_varint(blob, offset);

  const std::uint64_t payload_len = get_varint(blob, offset);
  if (payload_len > blob.size() - offset)
    fail(who, "partition payload runs past the blob");
  // Minimum entry footprint: one byte per varint, length + 1 of them.
  if (frame.entries > payload_len / (frame.length + 1ull))
    fail(who, "entry count exceeds payload size");
  frame.payload_begin = offset;
  frame.payload_end = offset + payload_len;

  const std::uint32_t stored = read_u32le(blob, frame.payload_end, who);
  const std::uint32_t actual =
      crc32c(blob.subspan(frame_begin, frame.payload_end - frame_begin));
  if (stored != actual) fail(who, "partition checksum mismatch");
  return frame;
}

void put_blob_entry(std::vector<std::uint8_t>& payload,
                    std::span<const Pos> positions, Count freq) {
  for (const Pos position : positions) put_varint(payload, position);
  put_varint(payload, freq);
}

void decode_blob_entry(std::span<const std::uint8_t> payload,
                       std::size_t& offset, std::uint32_t length,
                       Rank max_rank, core::PosVec& v, Count& freq) {
  v.resize(length);
  for (Pos& position : v) {
    // A one-byte value, as most position gaps are, is read in line.
    const std::uint64_t value =
        offset < payload.size() && payload[offset] < 0x80
            ? payload[offset++]
            : get_varint(payload, offset);
    if (value > max_rank) fail("decode_blob_entry", "position above max_rank");
    position = static_cast<Pos>(value);
  }
  freq = get_varint(payload, offset);
}

}  // namespace plt::compress
