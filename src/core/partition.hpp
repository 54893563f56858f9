// Partition D_k: all distinct position vectors of one length k with their
// frequencies and sums (the "matrix structure" of Figure 3(a)). Vectors live
// in one flat Pos arena; an open-addressing hash index maps vector contents
// to entry ids. Compact and allocation-light (Core Guidelines Per.14/16/19).
#pragma once

#include <span>
#include <vector>

#include "core/position_vector.hpp"
#include "util/common.hpp"

namespace plt::core {

class Partition {
 public:
  /// Entry id within a partition.
  using EntryId = std::uint32_t;
  static constexpr EntryId kNoEntry = 0xffffffffu;

  struct Entry {
    std::uint32_t offset;  ///< start of the vector in the arena
    Rank sum;              ///< Σ positions (the paper's stored V.sum)
    Count freq;            ///< occurrence count
  };

  /// A partition holds vectors of exactly `length` positions (length >= 1).
  explicit Partition(std::uint32_t length);

  std::uint32_t length() const { return length_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Adds `freq` to the vector's count, creating the entry if new.
  /// Returns the entry id; sets `created` when the entry is new.
  EntryId add(std::span<const Pos> v, Count freq, bool& created);
  EntryId add(std::span<const Pos> v, Count freq) {
    bool created = false;
    return add(v, freq, created);
  }

  /// Entry id of the vector, or kNoEntry.
  EntryId find(std::span<const Pos> v) const;

  const Entry& entry(EntryId id) const { return entries_[id]; }
  Entry& entry(EntryId id) { return entries_[id]; }

  /// The positions of an entry.
  std::span<const Pos> positions(EntryId id) const {
    return {arena_.data() + entries_[id].offset, length_};
  }

  /// Total frequency mass in the partition (Σ freq).
  Count total_freq() const;

  /// Number of Pos words stored in the arena (== size() * length() for a
  /// sound layout; the validator cross-checks exactly that).
  std::size_t arena_size() const { return arena_.size(); }

  std::size_t memory_usage() const;

  /// Stable iteration in insertion order.
  template <typename Fn>  // Fn(EntryId, span<const Pos>, const Entry&)
  void for_each(Fn&& fn) const {
    for (EntryId id = 0; id < entries_.size(); ++id)
      fn(id, positions(id), entries_[id]);
  }

  /// Hash of a position vector: 8 independent 32-bit lanes absorb full
  /// 8-word blocks, then the lanes, the tail words and the length fold
  /// into a splitmix-finalized 64-bit value. The values are pinned by
  /// partition_plt_test: they fix the index layout, and top-down's
  /// ActiveSet is ordered by them, so they fix its emission order.
  static std::uint64_t hash(std::span<const Pos> v);

 private:
  void grow_index();
  bool keys_equal(EntryId id, std::span<const Pos> v) const;

  std::uint32_t length_;
  std::vector<Pos> arena_;
  std::vector<Entry> entries_;
  /// Open-addressing table of entry-id+1 (0 = empty slot); power-of-two size.
  std::vector<std::uint32_t> index_;
};

}  // namespace plt::core
