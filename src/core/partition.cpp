#include "core/partition.hpp"

#include <bit>
#include <cstring>

namespace plt::core {

namespace {
constexpr std::size_t kInitialIndexSize = 16;
// Rehash when entries exceed 70% of slots.
bool over_loaded(std::size_t entries, std::size_t slots) {
  return entries * 10 >= slots * 7;
}

constexpr std::uint32_t kHashLaneSeed[8] = {
    0x9e3779b9u, 0x85ebca6bu, 0xc2b2ae35u, 0x27d4eb2fu,
    0x165667b1u, 0xd3a2646cu, 0xfd7046c5u, 0xb55a4f09u};
constexpr std::uint32_t kHashLaneMul = 0x9e3779b1u;
constexpr std::uint64_t kHashFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kHashFnvPrime = 0x100000001b3ull;
}  // namespace

Partition::Partition(std::uint32_t length) : length_(length) {
  PLT_ASSERT(length_ >= 1, "partition length must be >= 1");
  index_.assign(kInitialIndexSize, 0);
}

std::uint64_t Partition::hash(std::span<const Pos> v) {
  std::uint32_t lanes[8];
  std::memcpy(lanes, kHashLaneSeed, sizeof(lanes));
  const std::size_t n = v.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (std::size_t j = 0; j < 8; ++j)
      lanes[j] = std::rotl((lanes[j] ^ v[i + j]) * kHashLaneMul, 13);
  std::uint64_t h = kHashFnvOffset ^ (static_cast<std::uint64_t>(n) *
                                      kHashFnvPrime);
  for (const std::uint32_t lane : lanes) {
    h ^= lane;
    h *= kHashFnvPrime;
  }
  for (; i < n; ++i) {
    h ^= v[i];
    h *= kHashFnvPrime;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

bool Partition::keys_equal(EntryId id, std::span<const Pos> v) const {
  return std::memcmp(arena_.data() + entries_[id].offset, v.data(),
                     length_ * sizeof(Pos)) == 0;
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
