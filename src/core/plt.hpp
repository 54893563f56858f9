// The Positional Lexicographic Tree in its table form (Figure 3(a)): one
// Partition per vector length, plus an index of entries by vector sum.
// The sum index is what makes the conditional approach cheap: vectors whose
// sum equals rank j are exactly the (projected) transactions whose highest
// item is j (§5.1).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/partition.hpp"

namespace plt::core {

class Plt {
 public:
  /// Reference to one stored vector: which partition (by length) and which
  /// entry within it.
  struct Ref {
    std::uint32_t length;
    Partition::EntryId id;
  };

  /// `max_rank` is the alphabet size n; vector sums never exceed it.
  explicit Plt(Rank max_rank);

  Rank max_rank() const { return max_rank_; }

  /// Longest vector currently stored (0 when empty).
  std::uint32_t max_len() const;

  /// Adds `freq` occurrences of the vector. Returns its Ref.
  Ref add(std::span<const Pos> v, Count freq);

  /// Frequency of an exact vector (0 if absent).
  Count freq_of(std::span<const Pos> v) const;

  /// The partition for length k (created on demand by add()); may be null.
  const Partition* partition(std::uint32_t length) const;
  Partition* partition(std::uint32_t length);

  /// Entries whose vector sum equals `sum`, in insertion order.
  std::span<const Ref> bucket(Rank sum) const;

  std::span<const Pos> positions(Ref ref) const {
    return partitions_[ref.length - 1].positions(ref.id);
  }
  const Partition::Entry& entry(Ref ref) const {
    return partitions_[ref.length - 1].entry(ref.id);
  }
  Partition::Entry& entry(Ref ref) {
    return partitions_[ref.length - 1].entry(ref.id);
  }

  /// Number of distinct vectors across all partitions.
  std::size_t num_vectors() const;

  /// Total frequency mass (Σ freq over all entries).
  Count total_freq() const;

  std::size_t memory_usage() const;

  /// Multi-line rendering of the matrices structure, partition by partition,
  /// matching Figure 3(a): "D2: [1,1] sum=2 freq=3" etc.
  std::string to_string() const;

  /// Stable iteration over every entry of every partition.
  template <typename Fn>  // Fn(Ref, span<const Pos>, const Partition::Entry&)
  void for_each(Fn&& fn) const {
    for (std::uint32_t k = 1; k <= partitions_.size(); ++k) {
      partitions_[k - 1].for_each(
          [&](Partition::EntryId id, std::span<const Pos> v,
              const Partition::Entry& e) { fn(Ref{k, id}, v, e); });
    }
  }

 private:
  Rank max_rank_;
  std::vector<Partition> partitions_;          // partitions_[k-1] = D_k
  std::vector<std::vector<Ref>> buckets_;      // buckets_[s-1] = sum == s
};

}  // namespace plt::core
