#include "core/plt.hpp"

#include <sstream>

namespace plt::core {

Plt::Plt(Rank max_rank) : max_rank_(max_rank) {
  buckets_.resize(max_rank_);
}

std::uint32_t Plt::max_len() const {
  for (std::size_t k = partitions_.size(); k >= 1; --k)
    if (!partitions_[k - 1].empty()) return static_cast<std::uint32_t>(k);
  return 0;
}

Plt::Ref Plt::add(std::span<const Pos> v, Count freq) {
  PLT_ASSERT(!v.empty(), "cannot store the empty vector");
  const Rank sum = vector_sum(v);
  PLT_ASSERT(sum >= 1 && sum <= max_rank_,
             "vector sum exceeds the alphabet's maximum rank");
  const auto k = static_cast<std::uint32_t>(v.size());
  while (partitions_.size() < k)
    partitions_.emplace_back(
        static_cast<std::uint32_t>(partitions_.size() + 1));
  bool created = false;
  const auto id = partitions_[k - 1].add(v, freq, created);
  const Ref ref{k, id};
  if (created) buckets_[sum - 1].push_back(ref);
  return ref;
}

Count Plt::freq_of(std::span<const Pos> v) const {
  const auto k = v.size();
  if (k == 0 || k > partitions_.size()) return 0;
  const auto id = partitions_[k - 1].find(v);
  return id == Partition::kNoEntry ? 0 : partitions_[k - 1].entry(id).freq;
}

const Partition* Plt::partition(std::uint32_t length) const {
  if (length == 0 || length > partitions_.size()) return nullptr;
  return &partitions_[length - 1];
}

Partition* Plt::partition(std::uint32_t length) {
  if (length == 0 || length > partitions_.size()) return nullptr;
  return &partitions_[length - 1];
}

std::span<const Plt::Ref> Plt::bucket(Rank sum) const {
  PLT_ASSERT(sum >= 1 && sum <= max_rank_, "bucket sum out of range");
  return buckets_[sum - 1];
}

std::size_t Plt::num_vectors() const {
  std::size_t n = 0;
  for (const auto& p : partitions_) n += p.size();
  return n;
}

Count Plt::total_freq() const {
  Count total = 0;
  for (const auto& p : partitions_) total += p.total_freq();
  return total;
}

std::size_t Plt::memory_usage() const {
  std::size_t bytes = sizeof(Plt);
  for (const auto& p : partitions_) bytes += p.memory_usage();
  for (const auto& b : buckets_) bytes += b.capacity() * sizeof(Ref);
  return bytes;
}

std::string Plt::to_string() const {
  std::ostringstream out;
  for (std::uint32_t k = 1; k <= partitions_.size(); ++k) {
    const auto& p = partitions_[k - 1];
    if (p.empty()) continue;
    out << "D" << k << ":\n";
    p.for_each([&](Partition::EntryId, std::span<const Pos> v,
                   const Partition::Entry& e) {
      out << "  " << core::to_string(v) << " sum=" << e.sum
          << " freq=" << e.freq << '\n';
    });
  }
  return out.str();
}

}  // namespace plt::core
