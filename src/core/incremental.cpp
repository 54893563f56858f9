#include "core/incremental.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/projection_pool.hpp"
#include "core/tree_view.hpp"

namespace plt::core {

IncrementalPlt::IncrementalPlt(Item max_item)
    : max_item_(max_item),
      plt_(std::max<Rank>(1, max_item)),
      item_supports_(static_cast<std::size_t>(max_item) + 1, 0) {
  PLT_ASSERT(max_item >= 1, "the item universe must be non-empty");
}

std::span<const Pos> IncrementalPlt::encode(
    std::span<const Item> transaction) const {
  scratch_.assign(transaction.begin(), transaction.end());
  std::sort(scratch_.begin(), scratch_.end());
  scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                 scratch_.end());
  if (!scratch_.empty() &&
      (scratch_.front() < 1 || scratch_.back() > max_item_))
    throw std::invalid_argument("item id outside [1, max_item]");
  pos_scratch_.clear();
  pos_scratch_.reserve(scratch_.size());
  Item prev = 0;
  for (const Item item : scratch_) {
    pos_scratch_.push_back(item - prev);
    prev = item;
  }
  return pos_scratch_;
}

void IncrementalPlt::add(std::span<const Item> transaction) {
  const std::span<const Pos> v = encode(transaction);
  if (v.empty()) return;
  plt_.add(v, 1);
  for (const Item item : scratch_) item_supports_[item] += 1;
  ++transactions_;
}

void IncrementalPlt::remove(std::span<const Item> transaction) {
  const std::span<const Pos> v = encode(transaction);
  if (v.empty()) return;
  Partition* partition =
      plt_.partition(static_cast<std::uint32_t>(v.size()));
  const auto id =
      partition ? partition->find(v) : Partition::kNoEntry;
  if (id == Partition::kNoEntry || partition->entry(id).freq == 0)
    throw std::invalid_argument(
        "remove: transaction has no remaining occurrences");
  partition->entry(id).freq -= 1;
  for (const Item item : scratch_) item_supports_[item] -= 1;
  --transactions_;
}

void IncrementalPlt::add_all(const tdb::Database& db) {
  for (std::size_t t = 0; t < db.size(); ++t) add(db[t]);
}

Count IncrementalPlt::item_support(Item item) const {
  if (item < 1 || item > max_item_) return 0;
  return item_supports_[item];
}

FrequentItemsets IncrementalPlt::mine(Count min_support,
                                      const ConditionalOptions& options)
    const {
  FrequentItemsets out;
  if (transactions_ == 0) return out;

  // The tree of the live entries, weighted by frequency: removals leave
  // zero-frequency tombstones in the maintained PLT, which from_plt skips.
  const TreeView tree = TreeView::from_plt(plt_);

  // Ranks are raw item ids, so the rank -> item map is the identity.
  std::vector<Item> item_of(max_item_);
  for (Item i = 1; i <= max_item_; ++i) item_of[i - 1] = i;
  ProjectionEngine engine;
  engine.mine(tree, item_of, min_support, out, options);
  return out;
}

tdb::Database IncrementalPlt::to_database() const {
  tdb::Database db;
  std::vector<Item> row;
  plt_.for_each([&](Plt::Ref, std::span<const Pos> v,
                    const Partition::Entry& e) {
    if (e.freq == 0) return;
    row.clear();
    Item acc = 0;
    for (const Pos p : v) {
      acc += p;
      row.push_back(acc);
    }
    for (Count c = 0; c < e.freq; ++c) db.add(row);
  });
  return db;
}

std::size_t IncrementalPlt::memory_usage() const {
  return plt_.memory_usage() + item_supports_.capacity() * sizeof(Count) +
         scratch_.capacity() * sizeof(Item) +
         pos_scratch_.capacity() * sizeof(Pos);
}

}  // namespace plt::core
