// Conditional-approach tests: Algorithm 3's bucket/prefix mechanics, the
// filtered and unfiltered variants, agreement with the oracle, and the
// anti-monotone pruning behaviour.
#include <gtest/gtest.h>

#include <set>

#include "baselines/brute.hpp"
#include "core/builder.hpp"
#include "core/conditional.hpp"
#include "core/miner.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace plt::core {
namespace {

tdb::Database random_db(std::uint64_t seed, std::size_t transactions,
                        std::size_t items, double density) {
  Rng rng(seed);
  tdb::Database db;
  std::vector<Item> row;
  for (std::size_t t = 0; t < transactions; ++t) {
    row.clear();
    for (Item i = 1; i <= items; ++i)
      if (rng.next_bool(density)) row.push_back(i);
    if (row.empty()) row.push_back(1);
    db.add(row);
  }
  return db;
}

TEST(Conditional, MatchesBruteForceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto db = random_db(seed, 80, 12, 0.3);
    for (const Count minsup : {1u, 2u, 4u, 10u}) {
      FrequentItemsets expected;
      baselines::mine_brute_force(db, minsup, collect_into(expected));
      const FrequentItemsets actual =
          mine(db, minsup, Algorithm::kPltConditional).itemsets;
      plt::testing::expect_same_itemsets(expected, actual, "conditional");
    }
  }
}

TEST(Conditional, UnfilteredVariantAgrees) {
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    const auto db = random_db(seed, 60, 10, 0.35);
    const auto filtered = mine(db, 3, Algorithm::kPltConditional);
    const auto unfiltered = mine(db, 3, Algorithm::kPltConditionalNoFilter);
    plt::testing::expect_same_itemsets(filtered.itemsets,
                                       unfiltered.itemsets, "filter on/off");
  }
}

TEST(Conditional, ConditionalDatabaseExtraction) {
  // Hand-checkable: {1,2,3} x2, {2,3} x1, {3} x1 (items are ranks already).
  const auto db = tdb::Database::from_rows({{1, 2, 3}, {1, 2, 3}, {2, 3},
                                            {3}});
  const auto view = build_ranked_view(db, 1);
  const Plt plt = build_plt(view.db, 3);
  const auto cond = conditional_database(plt, 3);
  // Prefixes: [1,1] (freq 2), [2] (freq 1); the singleton {3} contributes
  // support but no prefix.
  std::set<std::pair<PosVec, Count>> got(cond.begin(), cond.end());
  const std::set<std::pair<PosVec, Count>> expected{{{1, 1}, 2}, {{2}, 1}};
  EXPECT_EQ(got, expected);
}

TEST(Conditional, BucketMassIsItemSupport) {
  const auto db = random_db(21, 100, 10, 0.3);
  const auto view = build_ranked_view(db, 1);
  Plt plt = build_plt(view.db, static_cast<Rank>(view.alphabet()));
  // Before any mining, the bucket for the highest rank r holds exactly the
  // transactions whose maximum item is r.
  const auto max_rank = static_cast<Rank>(view.alphabet());
  Count mass = 0;
  for (const auto ref : plt.bucket(max_rank)) mass += plt.entry(ref).freq;
  Count expected = 0;
  for (std::size_t t = 0; t < view.db.size(); ++t)
    if (view.db[t].back() == max_rank) expected += 1;
  EXPECT_EQ(mass, expected);
}

TEST(Conditional, SuffixSupportsAreProjectionSupports) {
  // Mining {suffix=j}: reported support of {i,j} must equal the number of
  // transactions containing both — checked against the oracle on Table 1.
  const auto db = plt::testing::paper_table1();
  const FrequentItemsets mined =
      mine(db, 2, Algorithm::kPltConditional).itemsets;
  EXPECT_EQ(mined.find_support(Itemset{1, 4}), 2u);   // AD
  EXPECT_EQ(mined.find_support(Itemset{2, 3}), 4u);   // BC
  EXPECT_EQ(mined.find_support(Itemset{2, 3, 4}), 2u);  // BCD
}

TEST(Conditional, AntiMonotonePruningStopsRecursion) {
  // With threshold above every pair support, only 1-itemsets survive and
  // the miner must not recurse into infrequent extensions.
  const auto db = tdb::Database::from_rows(
      {{1, 2}, {1, 3}, {2, 3}, {1}, {2}, {3}});
  const FrequentItemsets mined =
      mine(db, 3, Algorithm::kPltConditional).itemsets;
  ASSERT_EQ(mined.size(), 3u);
  const auto counts = mined.level_counts();
  ASSERT_GE(counts.size(), 2u);
  EXPECT_EQ(counts[1], 3u);
}

TEST(Conditional, EmptyDatabaseAndNoFrequentItems) {
  tdb::Database empty;
  const FrequentItemsets a =
      mine(empty, 1, Algorithm::kPltConditional).itemsets;
  EXPECT_TRUE(a.empty());

  const auto db = tdb::Database::from_rows({{1}, {2}});
  const FrequentItemsets b =
      mine(db, 5, Algorithm::kPltConditional).itemsets;
  EXPECT_TRUE(b.empty());
}

TEST(Conditional, DuplicateHeavyDatabase) {
  // Aggregation path: many identical transactions must collapse into a
  // single vector whose frequency drives all supports.
  tdb::Database db;
  for (int i = 0; i < 500; ++i) db.add({2, 4, 6});
  for (int i = 0; i < 100; ++i) db.add({2, 4});
  const FrequentItemsets mined =
      mine(db, 100, Algorithm::kPltConditional).itemsets;
  EXPECT_EQ(mined.find_support(Itemset{2, 4, 6}), 500u);
  EXPECT_EQ(mined.find_support(Itemset{2, 4}), 600u);
  EXPECT_EQ(mined.find_support(Itemset{2}), 600u);
  EXPECT_EQ(mined.size(), 7u);
}

TEST(Conditional, DeepRecursionChain) {
  // A 16-item single transaction repeated: the single maximal itemset has
  // 2^16-1 frequent subsets at minsup=3; exercise deep conditional chains.
  tdb::Database db;
  std::vector<Item> row;
  for (Item i = 1; i <= 16; ++i) row.push_back(i);
  for (int i = 0; i < 3; ++i) db.add(row);
  const FrequentItemsets mined =
      mine(db, 3, Algorithm::kPltConditional).itemsets;
  EXPECT_EQ(mined.size(), (1u << 16) - 1);
  EXPECT_EQ(mined.find_support(Itemset(row.begin(), row.end())), 3u);
}

}  // namespace
}  // namespace plt::core
