#include "core/itemset_collector.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace plt::core {

namespace {

/// Every itemset of a collection read once into one flat run, and the
/// record ids in canonical (length, lexicographic, support) order — so
/// sorting compares flat spans instead of re-reading trie chains.
struct Canonical {
  std::vector<Item> items;
  std::vector<std::size_t> offsets;  ///< itemset i is [offsets[i], offsets[i+1])
  std::vector<std::size_t> order;

  std::span<const Item> itemset(std::size_t i) const {
    return {items.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
};

Canonical canonical_order(const FrequentItemsets& set) {
  Canonical c;
  c.offsets.reserve(set.size() + 1);
  c.offsets.push_back(0);
  set.for_each([&](std::span<const Item> items, Count) {
    c.items.insert(c.items.end(), items.begin(), items.end());
    c.offsets.push_back(c.items.size());
  });
  c.order.resize(set.size());
  std::iota(c.order.begin(), c.order.end(), 0);
  std::sort(c.order.begin(), c.order.end(), [&](std::size_t a, std::size_t b) {
    const auto ia = c.itemset(a), ib = c.itemset(b);
    if (ia.size() != ib.size()) return ia.size() < ib.size();
    if (!std::equal(ia.begin(), ia.end(), ib.begin()))
      return std::lexicographical_compare(ia.begin(), ia.end(), ib.begin(),
                                          ib.end());
    // Duplicate itemsets (possible in hand-built collections) order by
    // support so canonicalization is fully deterministic.
    return set.support(a) < set.support(b);
  });
  return c;
}

}  // namespace

std::uint32_t FrequentItemsets::add(std::span<const Item> items,
                                    Count support) {
  PLT_ASSERT(!items.empty(), "the empty itemset is not reported");
  const std::size_t id = records_.size();
  PLT_ASSERT(id < kNoParent && items.size() < kNoParent - items_.size(),
             "record ids and run ends fit in 32 bits");
  items_.insert(items_.end(), items.begin(), items.end());
  records_.push_back(
      {kNoParent, static_cast<std::uint32_t>(items_.size()), support});
  return static_cast<std::uint32_t>(id);
}

void FrequentItemsets::append(const FrequentItemsets& block) {
  const std::size_t record_base = records_.size();
  const std::size_t item_base = items_.size();
  PLT_ASSERT(block.records_.size() < kNoParent - record_base &&
                 block.items_.size() < kNoParent - item_base,
             "record ids and run ends fit in 32 bits");
  items_.insert(items_.end(), block.items_.begin(), block.items_.end());
  // resize grows geometrically, so appending many blocks stays linear.
  records_.resize(record_base + block.records_.size());
  Record* out = records_.data() + record_base;
  for (const Record& r : block.records_)
    *out++ = {r.parent == kNoParent
                  ? kNoParent
                  : r.parent + static_cast<std::uint32_t>(record_base),
              r.end + static_cast<std::uint32_t>(item_base), r.support};
}

std::span<const Item> FrequentItemsets::itemset(std::size_t i,
                                                Itemset& scratch) const {
  const Record& leaf = records_[i];
  if (leaf.parent == kNoParent)
    return {items_.data() + run_begin(i), leaf.end - run_begin(i)};
  // Leaf to root: under kById each run is below its parent's, so the
  // concatenation is already ascending and the check is the only cost.
  // Runs are single items except at a root; push_back reads them in a
  // third of the time a range insert takes.
  scratch.clear();
  for (std::size_t r = i; r != kNoParent; r = records_[r].parent) {
    const std::uint32_t begin = run_begin(r), end = records_[r].end;
    if (end - begin == 1)
      scratch.push_back(items_[begin]);
    else
      scratch.insert(scratch.end(), items_.begin() + begin,
                     items_.begin() + end);
  }
  if (!std::is_sorted(scratch.begin(), scratch.end()))
    std::sort(scratch.begin(), scratch.end());
  return scratch;
}

void FrequentItemsets::PathReader::push(std::uint32_t record) {
  const std::uint32_t begin = set_.run_begin(record);
  const std::uint32_t run = set_.records_[record].end - begin;
  const std::uint32_t below = levels_.empty() ? 0 : levels_.back().length;
  const std::uint32_t length = below + run;
  if (length > path_.size()) {
    std::vector<Item> grown(std::max<std::size_t>(length, 2 * path_.size()));
    std::copy(path_.end() - below, path_.end(), grown.end() - below);
    path_.swap(grown);
  }
  Item* at = path_.data() + (path_.size() - length);
  std::copy(set_.items_.begin() + begin, set_.items_.begin() + begin + run,
            at);
  // The chain walk's read is this run, then the parent's path; it is
  // ascending when both are and they meet in order.
  bool ascending = std::is_sorted(at, at + run);
  if (below > 0)
    ascending = ascending && levels_.back().ascending &&
                !(at[run] < at[run - 1]);
  levels_.push_back({record, length, ascending});
}

std::span<const Item> FrequentItemsets::PathReader::read(std::size_t i) {
  const auto id = static_cast<std::uint32_t>(i);
  const std::uint32_t parent = set_.records_[i].parent;
  if (parent == kNoParent) {
    // A root reads as stored, as itemset(i) does, and goes on the path
    // only when a child follows: a collection of roots copies nothing.
    levels_.clear();
    root_ = id;
    return {set_.items_.data() + set_.run_begin(i),
            set_.records_[i].end - set_.run_begin(i)};
  }
  while (!levels_.empty() && levels_.back().record != parent)
    levels_.pop_back();
  if (levels_.empty()) {
    if (parent == root_) {
      push(parent);
    } else {
      chain_.clear();
      for (std::uint32_t r = parent; r != kNoParent;
           r = set_.records_[r].parent)
        chain_.push_back(r);
      for (auto r = chain_.rbegin(); r != chain_.rend(); ++r) push(*r);
    }
  }
  push(id);
  const Level& top = levels_.back();
  const std::span<const Item> items{path_.data() + (path_.size() - top.length),
                                    top.length};
  if (top.ascending) return items;
  sorted_.assign(items.begin(), items.end());
  std::sort(sorted_.begin(), sorted_.end());
  return sorted_;
}

std::vector<std::uint32_t> FrequentItemsets::lengths() const {
  // A parent precedes its children, so one forward pass suffices.
  std::vector<std::uint32_t> length(size());
  for (std::size_t i = 0; i < size(); ++i) {
    const Record& r = records_[i];
    length[i] = (r.end - run_begin(i)) +
                (r.parent == kNoParent ? 0 : length[r.parent]);
  }
  return length;
}

std::vector<std::size_t> FrequentItemsets::level_counts() const {
  std::vector<std::size_t> counts;
  for (const std::uint32_t len : lengths()) {
    if (len >= counts.size()) counts.resize(len + 1);
    counts[len] += 1;
  }
  return counts;
}

std::size_t FrequentItemsets::max_length() const {
  const std::vector<std::uint32_t> length = lengths();
  return length.empty() ? 0 : *std::max_element(length.begin(), length.end());
}

void FrequentItemsets::canonicalize() {
  const Canonical c = canonical_order(*this);
  FrequentItemsets sorted;
  sorted.items_.reserve(c.items.size());
  sorted.records_.reserve(size());
  for (const std::size_t i : c.order) sorted.add(c.itemset(i), support(i));
  *this = std::move(sorted);
}

bool FrequentItemsets::equal(const FrequentItemsets& a,
                             const FrequentItemsets& b) {
  if (a.size() != b.size()) return false;
  const Canonical ca = canonical_order(a);
  const Canonical cb = canonical_order(b);
  for (std::size_t k = 0; k < a.size(); ++k) {
    const std::size_t i = ca.order[k], j = cb.order[k];
    if (a.support(i) != b.support(j)) return false;
    const auto ia = ca.itemset(i), ib = cb.itemset(j);
    if (!std::equal(ia.begin(), ia.end(), ib.begin(), ib.end())) return false;
  }
  return true;
}

Count FrequentItemsets::find_support(std::span<const Item> items) const {
  Itemset scratch;
  for (std::size_t i = 0; i < size(); ++i) {
    const auto cand = itemset(i, scratch);
    if (cand.size() == items.size() &&
        std::equal(cand.begin(), cand.end(), items.begin()))
      return records_[i].support;
  }
  return 0;
}

std::string FrequentItemsets::to_string() const {
  const Canonical c = canonical_order(*this);
  std::ostringstream out;
  for (const std::size_t i : c.order) {
    const auto items = c.itemset(i);
    out << '{';
    for (std::size_t j = 0; j < items.size(); ++j) {
      if (j) out << ',';
      out << items[j];
    }
    out << "}:" << support(i) << '\n';
  }
  return out.str();
}

std::size_t FrequentItemsets::memory_usage() const {
  return items_.capacity() * sizeof(Item) +
         records_.capacity() * sizeof(Record);
}

ItemsetSink collect_into(FrequentItemsets& out) {
  return [&out](std::span<const Item> items, Count support) {
    out.add(items, support);
  };
}

}  // namespace plt::core
