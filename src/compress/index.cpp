#include "compress/index.hpp"

#include <stdexcept>

#include "compress/blob_format.hpp"
#include "util/common.hpp"

namespace plt::compress {

std::size_t BlobIndex::memory_usage() const {
  std::size_t bytes = sizeof(BlobIndex) +
                      partitions.capacity() * sizeof(PartitionRange);
  for (const auto& b : buckets)
    bytes += b.capacity() * sizeof(std::pair<std::uint32_t, std::uint64_t>);
  return bytes;
}

BlobIndex build_index(std::span<const std::uint8_t> blob) {
  const BlobHeader header = read_blob_header(blob, "build_index");
  BlobIndex index;
  index.max_rank = header.max_rank;
  index.buckets.resize(index.max_rank);

  std::size_t offset = header.body_offset;
  core::PosVec v;
  for (std::uint64_t p = 0; p < header.partitions; ++p) {
    // The frame reader verifies the CRC and bounds-checks the declared
    // lengths before any entry byte is interpreted.
    const PartitionFrame frame =
        read_partition_frame(blob, offset, header, "build_index");
    BlobIndex::PartitionRange range;
    range.length = frame.length;
    range.entries = frame.entries;
    range.begin = offset;
    for (std::uint64_t e = 0; e < frame.entries; ++e) {
      const std::uint64_t entry_offset = offset;
      Count freq = 0;
      decode_blob_entry(blob, offset, frame.length, v, freq);
      // The same per-entry check decode_plt applies: every later reader of
      // these buckets (serve scans, the OOC overlay) trusts the positions.
      const Rank sum = core::checked_sum(v, index.max_rank);
      if (sum == 0)
        throw std::runtime_error("build_index: invalid position vector");
      index.buckets[sum - 1].emplace_back(frame.length, entry_offset);
    }
    range.end = offset;
    if (offset != frame.payload_end)
      throw std::runtime_error(
          "build_index: partition payload length mismatch");
    offset = frame.payload_end + 4;  // skip the verified CRC
    index.partitions.push_back(range);
  }
  return index;
}

std::size_t decode_partition(
    std::span<const std::uint8_t> blob, const BlobIndex& index,
    std::uint32_t length,
    const std::function<void(std::span<const Pos>, Count)>& fn) {
  core::PosVec v;
  for (const auto& range : index.partitions) {
    if (range.length != length) continue;
    std::size_t offset = range.begin;
    for (std::uint64_t e = 0; e < range.entries; ++e) {
      Count freq = 0;
      decode_blob_entry(blob, offset, range.length, v, freq);
      fn(v, freq);
    }
    return range.entries;
  }
  return 0;
}

std::size_t decode_bucket(
    std::span<const std::uint8_t> blob, const BlobIndex& index, Rank sum,
    const std::function<void(std::span<const Pos>, Count)>& fn) {
  if (sum == 0 || sum > index.max_rank) return 0;
  // max_rank comes off disk while buckets is built locally; the subscript
  // below is only safe when build_index kept them in lockstep.
  PLT_ASSERT(index.buckets.size() == index.max_rank,
             "BlobIndex bucket count must match its max_rank");
  core::PosVec v;
  const auto& bucket = index.buckets[sum - 1];
  for (const auto& [length, entry_offset] : bucket) {
    std::size_t offset = entry_offset;
    Count freq = 0;
    decode_blob_entry(blob, offset, length, v, freq);
    fn(v, freq);
  }
  return bucket.size();
}

}  // namespace plt::compress
