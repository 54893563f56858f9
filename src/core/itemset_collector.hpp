// Result container shared by every miner in the repo: frequent itemsets in
// *original item ids* with their supports, stored as a suffix trie.
//
// One 16-byte record per itemset — (parent record, end of its own item run,
// support) — over one shared item array. A root record (parent kNoParent)
// holds its whole itemset; `add` writes one for every sink-driven producer.
// A depth-first miner reports every itemset as one it already reported plus
// one item, so `extend` appends a record whose run is that one item and
// whose parent holds the rest: 20 bytes per itemset, nothing copied or
// sorted. A random read walks from a record up to its root; a read of
// every record in order goes through one PathReader, which keeps the
// current root-to-record path instead. Under ItemOrder::kById the
// projection engine's chains are ascending as built; any other order sorts
// the read copy, so every read itemset is ascending.
//
// Record ids are indices in append order and a parent always precedes its
// children, so `append` concatenates a block (the projection engine's
// per-rank output) in one pass that rebases its parents and run ends.
// Canonicalization (sort itemsets by length, then lexicographically) makes
// results from different miners directly comparable in tests and benches.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace plt::core {

/// Callback signature every sink-driven miner reports through.
using ItemsetSink = std::function<void(std::span<const Item>, Count)>;

class FrequentItemsets {
 public:
  /// Parent of a root record.
  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();

  /// Appends a root record holding all of `items` (non-empty, stored as
  /// given); returns its id.
  std::uint32_t add(std::span<const Item> items, Count support);
  std::uint32_t add(const Itemset& items, Count support) {
    return add(std::span<const Item>(items), support);
  }

  /// Appends the itemset itemset(parent) ∪ {item} as a record whose run is
  /// `item` alone (a one-item root when `parent` is kNoParent); returns its
  /// id. The projection engine's one way to emit.
  std::uint32_t extend(std::uint32_t parent, Item item, Count support) {
    const std::size_t id = records_.size();
    PLT_ASSERT(parent == kNoParent || parent < id,
               "a parent record precedes its children");
    PLT_ASSERT(id < kNoParent && items_.size() < kNoParent,
               "record ids and run ends fit in 32 bits");
    items_.push_back(item);
    records_.push_back(
        {parent, static_cast<std::uint32_t>(items_.size()), support});
    return static_cast<std::uint32_t>(id);
  }

  /// Appends every record of `block` in order, rebasing its parents and
  /// run ends; the block's itemsets read back unchanged.
  void append(const FrequentItemsets& block);

  /// Drops every record and keeps the capacity.
  void clear() {
    items_.clear();
    records_.clear();
  }

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// Itemset `i`, ascending, as a copy.
  Itemset itemset(std::size_t i) const {
    Itemset out;
    const std::span<const Item> items = itemset(i, out);
    if (items.data() != out.data()) out.assign(items.begin(), items.end());
    return out;
  }
  /// Itemset `i`, ascending. A root record's span points into the
  /// collection; any other is read into `scratch`, which allocates nothing
  /// once warm. Valid until the next read into `scratch` or change here.
  std::span<const Item> itemset(std::size_t i, Itemset& scratch) const;
  Count support(std::size_t i) const { return records_[i].support; }

  /// Reads itemset(i) for i = 0, 1, 2, ... without walking chains. It
  /// keeps the current root-to-record path on a stack: a root resets it, a
  /// record pops it back to its parent and pushes its own run. A parent
  /// that is not on the stack (a producer that did not emit depth first,
  /// or a read out of order) is rebuilt by the chain walk, so any order
  /// reads correctly and depth-first order reads in O(1) per record.
  class PathReader {
   public:
    explicit PathReader(const FrequentItemsets& set) : set_(set) {}
    /// itemset(i): a root's stored run, else ascending. Valid until the
    /// next read or a change to the collection.
    std::span<const Item> read(std::size_t i);

   private:
    struct Level {
      std::uint32_t record;
      std::uint32_t length;  ///< items on the path from the root down here
      bool ascending;        ///< that path reads ascending from here up
    };
    void push(std::uint32_t record);

    const FrequentItemsets& set_;
    std::uint32_t root_ = kNoParent;  ///< last root read, pushed lazily
    std::vector<Item> path_;  ///< the path fills the tail, this record first
    std::vector<Level> levels_;
    std::vector<std::uint32_t> chain_;  ///< the fallback's root-ward ids
    Itemset sorted_;
  };

  /// Calls fn(itemset(i), support(i)) for every record, in order, through
  /// one PathReader.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    PathReader reader(*this);
    for (std::size_t i = 0; i < size(); ++i)
      fn(reader.read(i), records_[i].support);
  }

  /// Calls sink(itemset(i), support(i)) for every record, in order.
  void replay(const ItemsetSink& sink) const { for_each(sink); }

  /// Number of itemsets of each length; index = length.
  std::vector<std::size_t> level_counts() const;

  /// Length of the longest itemset.
  std::size_t max_length() const;

  /// Sorts itemsets by (length, lexicographic) — canonical order. Every
  /// record becomes a root.
  void canonicalize();

  /// Exact equality after canonicalization of both sides.
  static bool equal(const FrequentItemsets& a, const FrequentItemsets& b);

  /// Returns the support of `items` (which must be sorted), or 0 when the
  /// itemset was not mined. Linear scan — intended for tests.
  Count find_support(std::span<const Item> items) const;

  /// "{1,3,5}:4" lines, canonical order.
  std::string to_string() const;

  std::size_t memory_usage() const;

 private:
  struct Record {
    std::uint32_t parent;  ///< kNoParent for a root
    std::uint32_t end;     ///< end of this record's run in items_
    Count support;
  };
  static_assert(sizeof(Record) == 16);

  /// Start of record `i`'s run: runs are laid out in record order.
  std::uint32_t run_begin(std::size_t i) const {
    return i == 0 ? 0 : records_[i - 1].end;
  }
  /// Every record's itemset length.
  std::vector<std::uint32_t> lengths() const;

  std::vector<Item> items_;
  std::vector<Record> records_;
};

/// Sink that appends into a FrequentItemsets.
ItemsetSink collect_into(FrequentItemsets& out);

}  // namespace plt::core
