// Partition/bucket index over a serialized PLT: byte ranges per partition
// and per vector-sum bucket, enabling selective decode — the "indexing
// techniques" of §1/§6: plt-serve decodes exactly the buckets a query's
// ranks can reach.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/plt.hpp"

namespace plt::compress {

struct BlobIndex {
  struct PartitionRange {
    std::uint32_t length = 0;
    std::uint64_t begin = 0;  ///< byte offset of the entry stream
    std::uint64_t end = 0;
    std::uint64_t entries = 0;
  };
  Rank max_rank = 0;
  std::vector<PartitionRange> partitions;
  /// buckets[s-1]: byte offsets (into the blob) of entries whose vector
  /// sum is s, across all partitions, paired with their vector length —
  /// ready to hand to decode_blob_entry.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> buckets;

  std::size_t memory_usage() const;
};

/// Scans an encoded PLT once and builds the index, checking every frame CRC
/// and every entry's positions (core::checked_sum) on the way. Throws
/// std::runtime_error on malformed input.
BlobIndex build_index(std::span<const std::uint8_t> blob);

/// Decodes only the vectors of partition `length` through the callback
/// (positions, freq). Returns the number of entries visited.
std::size_t decode_partition(
    std::span<const std::uint8_t> blob, const BlobIndex& index,
    std::uint32_t length,
    const std::function<void(std::span<const Pos>, Count)>& fn);

/// Decodes only the vectors whose sum equals `sum`. Returns entries visited.
std::size_t decode_bucket(
    std::span<const std::uint8_t> blob, const BlobIndex& index, Rank sum,
    const std::function<void(std::span<const Pos>, Count)>& fn);

}  // namespace plt::compress
