#include "compress/index.hpp"

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
  // The checked reader verifies every CRC and every entry's positions
  // before an entry lands in a bucket: every later reader of these buckets
  // (serve scans) trusts them.
  for_each_checked_entry(
      blob, header, "build_index",
      [&](const PartitionFrame& frame, std::size_t entry_offset,
          std::span<const Pos>, Rank sum, Count) {
        index.buckets[sum - 1].emplace_back(frame.length, entry_offset);
      },
      [&](const PartitionFrame& frame) {
        index.partitions.push_back({frame.length, frame.payload_begin,
                                    frame.payload_end, frame.entries});
      });
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
