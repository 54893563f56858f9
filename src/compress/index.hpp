// Vertical index over a serialized PLT — the "indexing techniques" of
// §1/§6: per rank, the ascending ids of the stored entries whose vector
// contains it (an entry's id is its position in stored order), so an
// itemset's witnesses are the intersection of its ranks' lists and
// plt-serve answers a query from a few list intersections instead of a
// scan. The lists are delta-coded LEB128 in one byte arena; the index
// keeps no copy of the blob.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/plt.hpp"

namespace plt::compress {

struct BlobIndex {
  /// One partition frame of the blob: its entries are the ids
  /// [first_id, next frame's first_id), each a vector of `length`.
  struct Frame {
    std::uint32_t length = 0;
    std::uint32_t first_id = 0;
  };
  Rank max_rank = 0;
  Count total_freq = 0;  ///< Σ freq over all entries = transaction count
  std::vector<Frame> frames;  ///< in stored order
  std::vector<Count> freq;    ///< freq[id]
  /// item_support[r-1]: Σ freq over the entries whose vector contains r.
  std::vector<Count> item_support;
  /// list_size[r-1]: how many entries contain rank r.
  std::vector<std::uint32_t> list_size;
  /// Rank r's list is lists[list_begin[r-1], list_begin[r]).
  std::vector<std::size_t> list_begin;
  std::vector<std::uint8_t> lists;

  std::size_t entries() const { return freq.size(); }

  /// Ids in rank r's list; 0 for a rank outside 1..max_rank.
  std::size_t ids_of(Rank r) const {
    return r == 0 || r > max_rank ? 0 : list_size[r - 1];
  }

  static constexpr std::uint32_t kNoBound =
      std::numeric_limits<std::uint32_t>::max();

  /// Reads rank r's list from its start, a block of ids at a time.
  class ListCursor {
   public:
    ListCursor(const BlobIndex& index, Rank r);
    /// Writes the list's next ids, ascending, to out: at most `max`, and
    /// only ids below `below`. Returns how many; fewer than `max` means
    /// the list or the bound is exhausted.
    std::size_t next(std::uint32_t* out, std::size_t max,
                     std::uint32_t below = kNoBound);

   private:
    const std::uint8_t* at_ = nullptr;
    const std::uint8_t* end_ = nullptr;
    std::size_t left_ = 0;  ///< ids not yet read
    std::uint32_t id_ = 0;
  };

  /// Writes rank r's ids, ascending, to out[0..ids_of(r)); returns that
  /// count.
  std::size_t decode_list(Rank r, std::uint32_t* out) const;

  /// One past the last id of any frame of vectors of `length`; 0 when
  /// there is none.
  std::uint32_t length_end(std::uint32_t length) const;

  /// Keeps, in place and in order, the ids among ids[0..n) (ascending)
  /// whose frame holds vectors of `length`; returns how many remain.
  std::size_t keep_length(std::uint32_t length, std::uint32_t* ids,
                          std::size_t n) const;

  std::size_t memory_usage() const;
};

/// Builds the index in two exact-sized passes. The first is the checked
/// entry reader: every frame CRC and every entry's positions
/// (core::checked_sum) pass before any list byte is written, and it sizes
/// each rank's list. The second re-decodes the verified frames and writes
/// the lists in place. Throws std::runtime_error on malformed input.
BlobIndex build_index(std::span<const std::uint8_t> blob);

}  // namespace plt::compress
