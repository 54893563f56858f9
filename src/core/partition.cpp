#include "core/partition.hpp"

#include "kernels/kernels.hpp"

namespace plt::core {

namespace {
constexpr std::size_t kInitialIndexSize = 16;
// Rehash when entries exceed 70% of slots.
bool over_loaded(std::size_t entries, std::size_t slots) {
  return entries * 10 >= slots * 7;
}
}  // namespace

Partition::Partition(std::uint32_t length) : length_(length) {
  PLT_ASSERT(length_ >= 1, "partition length must be >= 1");
  index_.assign(kInitialIndexSize, 0);
}

std::uint64_t Partition::hash(std::span<const Pos> v) {
  // Kernel-backed lane hash. Every backend computes the same value
  // (kernels contract rule #1), so index layout and any hash-ordered
  // iteration downstream are backend-independent.
  return kernels::active().hash_positions(v.data(), v.size());
}

bool Partition::keys_equal(EntryId id, std::span<const Pos> v) const {
  return kernels::active().equals_positions(arena_.data() + entries_[id].offset,
                                            v.data(), length_);
}

Partition::EntryId Partition::find(std::span<const Pos> v) const {
  PLT_ASSERT(v.size() == length_, "vector length must match the partition");
  const std::uint64_t h = hash(v);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t slot = h & mask;; slot = (slot + 1) & mask) {
    const std::uint32_t stored = index_[slot];
    if (stored == 0) return kNoEntry;
    const EntryId id = stored - 1;
    if (keys_equal(id, v)) return id;
  }
}

Partition::EntryId Partition::add(std::span<const Pos> v, Count freq,
                                  bool& created) {
  PLT_ASSERT(v.size() == length_, "vector length must match the partition");
  if (over_loaded(entries_.size() + 1, index_.size())) grow_index();
  const std::uint64_t h = hash(v);
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = h & mask;
  for (;; slot = (slot + 1) & mask) {
    const std::uint32_t stored = index_[slot];
    if (stored == 0) break;
    const EntryId id = stored - 1;
    if (keys_equal(id, v)) {
      entries_[id].freq += freq;
      created = false;
      return id;
    }
  }
  // New entry: append to the arena.
  PLT_ASSERT(arena_.size() + length_ <= 0xffffffffull,
             "partition arena exceeds 32-bit offsets");
  const auto offset = static_cast<std::uint32_t>(arena_.size());
  arena_.insert(arena_.end(), v.begin(), v.end());
  Entry e;
  e.offset = offset;
  e.sum = vector_sum(v);
  e.freq = freq;
  entries_.push_back(e);
  const auto id = static_cast<EntryId>(entries_.size() - 1);
  index_[slot] = id + 1;
  created = true;
  return id;
}

void Partition::reserve(std::size_t entries) {
  entries_.reserve(entries);
  arena_.reserve(entries * length_);
  while (over_loaded(entries, index_.size())) grow_index();
}

void Partition::grow_index() {
  std::vector<std::uint32_t> old;
  old.swap(index_);
  index_.assign(old.size() * 2, 0);
  const std::size_t mask = index_.size() - 1;
  for (const std::uint32_t stored : old) {
    if (stored == 0) continue;
    const EntryId id = stored - 1;
    std::size_t slot = hash(positions(id)) & mask;
    while (index_[slot] != 0) slot = (slot + 1) & mask;
    index_[slot] = stored;
  }
}

Count Partition::total_freq() const {
  Count total = 0;
  for (const Entry& e : entries_) total += e.freq;
  return total;
}

std::size_t Partition::memory_usage() const {
  return arena_.capacity() * sizeof(Pos) +
         entries_.capacity() * sizeof(Entry) +
         index_.capacity() * sizeof(std::uint32_t);
}

}  // namespace plt::core
