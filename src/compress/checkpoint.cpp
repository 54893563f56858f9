#include "compress/checkpoint.hpp"

#include <cstring>
#include <limits>
#include <stdexcept>

#include "compress/blob_format.hpp"
#include "compress/varint.hpp"
#include "util/crc32c.hpp"
#include "util/failpoint.hpp"

namespace plt::compress {

namespace {

constexpr char kCheckpointMagic[4] = {'P', 'L', 'T', 'K'};

std::vector<std::uint8_t> encode_record(const CheckpointRecord& record) {
  std::vector<std::uint8_t> bytes;
  put_varint(bytes, record.rank);
  put_varint(bytes, record.itemsets.size());
  record.itemsets.for_each([&](std::span<const Item> items, Count support) {
    put_varint(bytes, items.size());
    for (const Item item : items) put_varint(bytes, item);
    put_varint(bytes, support);
  });
  append_u32le(bytes, crc32c(bytes));
  return bytes;
}

// Parses one record at `offset`; returns false (offset untouched) when the
// bytes are torn, fail their CRC, or hold an empty itemset or an item
// beyond 32 bits — the caller stops there.
bool parse_record(std::span<const std::uint8_t> bytes, std::size_t& offset,
                  Rank max_rank, CheckpointRecord& record) {
  std::size_t cursor = offset;
  try {
    const std::uint64_t rank = get_varint(bytes, cursor);
    if (rank == 0 || rank > max_rank) return false;
    record.rank = static_cast<Rank>(rank);
    const std::uint64_t count = get_varint(bytes, cursor);
    // Each itemset costs at least three bytes (size, item, support).
    if (count > (bytes.size() - cursor) / 3) return false;
    record.itemsets.clear();
    Itemset items;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t size = get_varint(bytes, cursor);
      if (size == 0 || size > bytes.size() - cursor) return false;
      items.clear();
      for (std::uint64_t j = 0; j < size; ++j) {
        const std::uint64_t item = get_varint(bytes, cursor);
        if (item > std::numeric_limits<Item>::max()) return false;
        items.push_back(static_cast<Item>(item));
      }
      record.itemsets.add(items, get_varint(bytes, cursor));
    }
    const std::uint32_t stored = read_u32le(bytes, cursor, "checkpoint");
    PLT_ASSERT(offset <= cursor && cursor <= bytes.size(),
               "varint cursor stays between record start and buffer end");
    const std::uint32_t actual =
        crc32c(bytes.subspan(offset, cursor - offset));
    if (stored != actual) return false;
    offset = cursor + 4;
    return true;
  } catch (const std::runtime_error&) {
    return false;  // truncated varint / checksum slot: torn tail
  }
}

}  // namespace

std::uint32_t window_binding_crc(std::uint32_t blob_crc, Rank rank_lo,
                                 Rank rank_hi, Rank max_rank) {
  if (rank_lo <= 1 && rank_hi >= max_rank) return blob_crc;
  std::vector<std::uint8_t> window;
  put_varint(window, rank_lo);
  put_varint(window, rank_hi);
  return crc32c(window, blob_crc);
}

bool read_checkpoint(const std::string& path, std::uint32_t blob_crc,
                     Count min_support, Rank max_rank, CheckpointLog& out) {
  out.records.clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::vector<std::uint8_t> bytes;
  std::uint8_t buffer[1 << 16];
  for (;;) {
    const std::size_t got = std::fread(buffer, 1, sizeof(buffer), f);
    bytes.insert(bytes.end(), buffer, buffer + got);
    if (got < sizeof(buffer)) break;
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return false;

  // Header: magic + binding + CRC.
  if (bytes.size() < 4 ||
      std::memcmp(bytes.data(), kCheckpointMagic, 4) != 0)
    return false;
  std::size_t offset = 4;
  try {
    const std::uint32_t stored_blob_crc = read_u32le(bytes, offset,
                                                     "checkpoint");
    offset += 4;
    const std::uint64_t stored_minsup = get_varint(bytes, offset);
    const std::uint64_t stored_max_rank = get_varint(bytes, offset);
    const std::uint32_t header_crc = read_u32le(bytes, offset, "checkpoint");
    PLT_ASSERT(offset <= bytes.size(), "varint cursor stays in the buffer");
    const std::uint32_t actual =
        crc32c(std::span<const std::uint8_t>(bytes).subspan(4, offset - 4));
    if (header_crc != actual) return false;
    offset += 4;
    if (stored_blob_crc != blob_crc || stored_minsup != min_support ||
        stored_max_rank != max_rank)
      return false;  // log belongs to a different (blob, min_support)
  } catch (const std::runtime_error&) {
    return false;
  }

  // Records must descend contiguously from max_rank: the miner writes rank
  // j only after j+1..max_rank, so any gap means the log is unusable
  // beyond it.
  Rank expected = max_rank;
  while (offset < bytes.size()) {
    CheckpointRecord record;
    if (!parse_record(bytes, offset, max_rank, record)) break;
    if (record.rank != expected) break;
    --expected;
    out.records.push_back(std::move(record));
  }
  return true;
}

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   std::uint32_t blob_crc, Count min_support,
                                   Rank max_rank,
                                   const CheckpointLog* replay)
    : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr)
    throw std::runtime_error("checkpoint: cannot open " + path);
  std::vector<std::uint8_t> header;
  for (const char c : kCheckpointMagic)
    header.push_back(static_cast<std::uint8_t>(c));
  append_u32le(header, blob_crc);
  put_varint(header, min_support);
  put_varint(header, max_rank);
  append_u32le(header,
               crc32c(std::span<const std::uint8_t>(header).subspan(4)));
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size())
    throw std::runtime_error("checkpoint: header write failed on " + path);
  if (replay != nullptr)
    for (const CheckpointRecord& record : replay->records) append(record);
}

CheckpointWriter::~CheckpointWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void CheckpointWriter::append(const CheckpointRecord& record) {
  PLT_FAILPOINT("ooc.checkpoint_write");
  const std::vector<std::uint8_t> bytes = encode_record(record);
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size() ||
      std::fflush(file_) != 0)
    throw std::runtime_error("checkpoint: record write failed on " + path_);
  ++records_;
}

}  // namespace plt::compress
