// The result collection as a suffix trie: `extend` records share their
// parent's items, `add` roots hold whole itemsets, and every read — by
// value, through a scratch, through canonicalize / equal / find_support /
// level_counts / max_length / to_string — must see the same itemsets a
// flat list of (sorted itemset, support) pairs holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "core/itemset_collector.hpp"
#include "core/miner.hpp"
#include "datagen/quest.hpp"
#include "util/rng.hpp"

namespace plt::core {
namespace {

constexpr std::uint32_t kRoot = FrequentItemsets::kNoParent;

using Flat = std::vector<std::pair<Itemset, Count>>;

/// Every record of `set` read both ways; the two forms must agree.
Flat read_all(const FrequentItemsets& set) {
  Flat out;
  Itemset scratch;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const Itemset copy = set.itemset(i);
    const std::span<const Item> view = set.itemset(i, scratch);
    EXPECT_EQ(Itemset(view.begin(), view.end()), copy) << "record " << i;
    out.emplace_back(copy, set.support(i));
  }
  return out;
}

bool strictly_ascending(const Itemset& items) {
  return std::adjacent_find(items.begin(), items.end(),
                            std::greater_equal<>()) == items.end();
}

TEST(ItemsetCollector, ExtendChainsReadBackAscending) {
  // Built the way the engine builds under ItemOrder::kById: each record's
  // item is below its parent's, so the leaf-to-root read is ascending.
  FrequentItemsets set;
  const auto a = set.extend(kRoot, 9, 10);  // {9}
  const auto b = set.extend(a, 5, 8);       // {5,9}
  const auto c = set.extend(b, 2, 6);       // {2,5,9}
  set.extend(a, 7, 4);                      // {7,9}
  set.extend(c, 1, 3);                      // {1,2,5,9}
  // Built against id order, as under a frequency order: the read sorts.
  const auto d = set.extend(kRoot, 3, 2);   // {3}
  set.extend(set.extend(d, 8, 1), 6, 1);    // {3,8}, {3,6,8}

  const Flat expected = {{{9}, 10},      {{5, 9}, 8},   {{2, 5, 9}, 6},
                         {{7, 9}, 4},    {{1, 2, 5, 9}, 3}, {{3}, 2},
                         {{3, 8}, 1},    {{3, 6, 8}, 1}};
  EXPECT_EQ(read_all(set), expected);
}

TEST(ItemsetCollector, RootSpanPointsIntoTheCollection) {
  FrequentItemsets set;
  const auto root = set.add(Itemset{2, 4, 6}, 5);
  set.extend(root, 1, 3);  // {1,2,4,6}

  Itemset scratch{99};
  const std::span<const Item> whole = set.itemset(root, scratch);
  EXPECT_EQ(Itemset(whole.begin(), whole.end()), (Itemset{2, 4, 6}));
  EXPECT_NE(whole.data(), scratch.data());
  EXPECT_EQ(scratch, Itemset{99});  // a root read leaves the scratch alone
  EXPECT_EQ(set.itemset(root, scratch).data(), whole.data());

  const std::span<const Item> chain = set.itemset(1, scratch);
  EXPECT_EQ(chain.data(), scratch.data());
  EXPECT_EQ(Itemset(chain.begin(), chain.end()), (Itemset{1, 2, 4, 6}));
  // A warm scratch serves the next read of that size without growing.
  const Item* warm = scratch.data();
  EXPECT_EQ(set.itemset(1, scratch).data(), warm);
}

TEST(ItemsetCollector, AppendRebasesBlocksOfRootsAndChains) {
  FrequentItemsets first;
  const auto r0 = first.add(Itemset{3, 7}, 5);  // {3,7}
  first.extend(r0, 1, 4);                       // {1,3,7}
  const auto r2 = first.extend(kRoot, 9, 6);    // {9}
  first.extend(r2, 4, 2);                       // {4,9}

  FrequentItemsets second;
  const auto s0 = second.extend(kRoot, 8, 7);      // {8}
  const auto s1 = second.extend(s0, 2, 3);         // {2,8}
  const auto s2 = second.add(Itemset{1, 5}, 2);    // {1,5}
  second.extend(s2, 0, 1);                         // {0,1,5}
  second.extend(s1, 1, 1);                         // {1,2,8}

  FrequentItemsets all;
  all.append(first);
  all.append(second);
  all.append(first);

  Flat expected = read_all(first);
  const Flat tail = read_all(second);
  expected.insert(expected.end(), tail.begin(), tail.end());
  const Flat again = read_all(first);
  expected.insert(expected.end(), again.begin(), again.end());
  EXPECT_EQ(read_all(all), expected);

  // The appended records stay extendable under their new ids.
  const auto grown = all.extend(static_cast<std::uint32_t>(first.size()) + 1,
                                0, 1);
  EXPECT_EQ(all.itemset(grown), (Itemset{0, 2, 8}));
}

TEST(ItemsetCollector, ClearKeepsCapacity) {
  FrequentItemsets set;
  std::uint32_t parent = kRoot;
  for (Item item = 200; item > 100; --item)
    parent = set.extend(parent, item, item);
  set.add(Itemset{1, 2, 3}, 1);
  const std::size_t bytes = set.memory_usage();

  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.memory_usage(), bytes);
  set.extend(kRoot, 4, 2);
  EXPECT_EQ(set.memory_usage(), bytes);
  EXPECT_EQ(read_all(set), (Flat{{{4}, 2}}));
}

/// A random collection of chains and roots, with the flat list it holds.
std::pair<FrequentItemsets, Flat> random_collection(std::uint64_t seed) {
  Rng rng(seed);
  FrequentItemsets set;
  Flat flat;
  for (int n = 0; n < 400; ++n) {
    if (flat.empty() || rng.next_below(5) == 0) {
      std::set<Item> items;
      const auto size = 1 + rng.next_below(4);
      while (items.size() < size)
        items.insert(static_cast<Item>(1 + rng.next_below(30)));
      const Itemset sorted(items.begin(), items.end());
      const Count support = 1 + rng.next_below(9);
      set.add(sorted, support);
      flat.emplace_back(sorted, support);
      continue;
    }
    const auto parent = static_cast<std::uint32_t>(rng.next_below(flat.size()));
    const Itemset& base = flat[parent].first;
    if (base.size() >= 8) continue;
    Item item = 0;
    do {
      item = static_cast<Item>(1 + rng.next_below(30));
    } while (std::find(base.begin(), base.end(), item) != base.end());
    Itemset grown = base;
    grown.insert(std::upper_bound(grown.begin(), grown.end(), item), item);
    const Count support = 1 + rng.next_below(9);
    set.extend(parent, item, support);
    flat.emplace_back(std::move(grown), support);
  }
  return {std::move(set), std::move(flat)};
}

Flat canonical(Flat flat) {
  std::sort(flat.begin(), flat.end(), [](const auto& a, const auto& b) {
    if (a.first.size() != b.first.size())
      return a.first.size() < b.first.size();
    return a < b;
  });
  return flat;
}

TEST(ItemsetCollector, ReadersAgreeWithAFlatReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto [set, flat] = random_collection(seed);
    ASSERT_EQ(read_all(set), flat) << "seed " << seed;

    std::vector<std::size_t> levels;
    std::size_t longest = 0;
    for (const auto& [items, support] : flat) {
      if (items.size() >= levels.size()) levels.resize(items.size() + 1);
      ++levels[items.size()];
      longest = std::max(longest, items.size());
    }
    EXPECT_EQ(set.level_counts(), levels);
    EXPECT_EQ(set.max_length(), longest);

    for (const auto& [items, support] : flat) {
      const auto first = std::find_if(
          flat.begin(), flat.end(),
          [&](const auto& entry) { return entry.first == items; });
      EXPECT_EQ(set.find_support(items), first->second);
    }
    EXPECT_EQ(set.find_support(Itemset{31}), 0u);

    const Flat sorted = canonical(flat);
    std::ostringstream text;
    for (const auto& [items, support] : sorted) {
      text << '{';
      for (std::size_t j = 0; j < items.size(); ++j)
        text << (j ? "," : "") << items[j];
      text << "}:" << support << '\n';
    }
    EXPECT_EQ(set.to_string(), text.str());

    // The same itemsets as roots in reverse order are equal; one support
    // off is not.
    FrequentItemsets reversed;
    for (auto it = flat.rbegin(); it != flat.rend(); ++it)
      reversed.add(it->first, it->second);
    EXPECT_TRUE(FrequentItemsets::equal(set, reversed));
    FrequentItemsets off = reversed;
    off.add(Itemset{31}, 1);
    EXPECT_FALSE(FrequentItemsets::equal(set, off));
    FrequentItemsets bumped;
    for (std::size_t i = 0; i < flat.size(); ++i)
      bumped.add(flat[i].first, flat[i].second + (i == flat.size() / 2));
    EXPECT_FALSE(FrequentItemsets::equal(set, bumped));

    set.canonicalize();
    EXPECT_EQ(read_all(set), sorted);
  }
}

TEST(ItemsetCollector, FrequencyOrdersReadBackAscending) {
  // Under a frequency order the engine's chains are not ascending as
  // built; every read must still be, and the itemsets must be kById's.
  datagen::QuestConfig cfg;
  cfg.transactions = 400;
  cfg.items = 40;
  cfg.seed = 7;
  const tdb::Database db = datagen::generate_quest(cfg);
  const MineResult by_id = mine(db, 4, Algorithm::kPltConditional);
  ASSERT_GT(by_id.itemsets.max_length(), 2u);
  for (const tdb::ItemOrder order : {tdb::ItemOrder::kByFreqAscending,
                                     tdb::ItemOrder::kByFreqDescending}) {
    MineOptions options;
    options.item_order = order;
    const MineResult mined = mine(db, 4, Algorithm::kPltConditional, options);
    for (const auto& [items, support] : read_all(mined.itemsets))
      EXPECT_TRUE(strictly_ascending(items));
    EXPECT_TRUE(FrequentItemsets::equal(mined.itemsets, by_id.itemsets));
  }
  for (const auto& [items, support] : read_all(by_id.itemsets))
    EXPECT_TRUE(strictly_ascending(items));
}

/// `set` read in record order through for_each and through one PathReader
/// in reverse and strided order; every read must be itemset(i).
void expect_path_reads_match(const FrequentItemsets& set, const char* what) {
  Itemset scratch;
  std::size_t i = 0;
  set.for_each([&](std::span<const Item> items, Count support) {
    const std::span<const Item> walked = set.itemset(i, scratch);
    EXPECT_TRUE(std::equal(items.begin(), items.end(), walked.begin(),
                           walked.end()))
        << what << " record " << i;
    EXPECT_EQ(support, set.support(i)) << what << " record " << i;
    ++i;
  });
  EXPECT_EQ(i, set.size()) << what;
  FrequentItemsets::PathReader reader(set);
  std::vector<std::size_t> order;
  for (std::size_t r = set.size(); r-- > 0;) order.push_back(r);
  for (std::size_t r = 0; r < set.size(); r += 3) order.push_back(r);
  for (const std::size_t r : order) {
    const std::span<const Item> read = reader.read(r);
    EXPECT_EQ(Itemset(read.begin(), read.end()), set.itemset(r))
        << what << " out-of-order record " << r;
  }
}

TEST(ItemsetCollector, PathReaderMatchesTheChainWalk) {
  // Depth first, as the engine emits: every parent is on the path.
  FrequentItemsets depth_first;
  const auto a = depth_first.extend(kRoot, 9, 10);  // {9}
  const auto b = depth_first.extend(a, 5, 8);       // {5,9}
  depth_first.extend(depth_first.extend(b, 2, 6), 1, 3);  // {2,5,9}, {1,2,5,9}
  depth_first.extend(b, 3, 5);                      // {3,5,9}: pops back
  depth_first.extend(a, 7, 4);                      // {7,9}
  const auto c = depth_first.extend(kRoot, 3, 2);   // {3}: a new root
  depth_first.extend(depth_first.extend(c, 8, 1), 6, 1);  // unsorted chain
  expect_path_reads_match(depth_first, "depth-first");

  // Roots only, one of them stored out of order.
  FrequentItemsets roots;
  roots.add(Itemset{2, 4, 6}, 5);
  roots.add(Itemset{7}, 4);
  roots.add(Itemset{5, 1, 3}, 2);
  expect_path_reads_match(roots, "roots");

  // Blocks appended after each other, and chains under a stored root.
  FrequentItemsets appended;
  appended.append(depth_first);
  appended.append(roots);
  const auto grown = appended.extend(
      static_cast<std::uint32_t>(depth_first.size()), 1, 3);  // {1,2,4,6}
  appended.extend(grown, 0, 1);
  appended.append(depth_first);
  expect_path_reads_match(appended, "appended");

  // Breadth first: each record's parent has already left the path.
  FrequentItemsets breadth_first;
  const auto x = breadth_first.extend(kRoot, 9, 6);
  const auto y = breadth_first.extend(kRoot, 8, 5);
  const auto x1 = breadth_first.extend(x, 4, 3);
  const auto y1 = breadth_first.extend(y, 2, 2);
  breadth_first.extend(x1, 1, 1);
  breadth_first.extend(y1, 0, 1);
  breadth_first.extend(x, 6, 2);
  expect_path_reads_match(breadth_first, "breadth-first");
}

}  // namespace
}  // namespace plt::core
