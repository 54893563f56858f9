// Edge-condition coverage across modules: boundary inputs the main suites
// do not naturally reach.
#include <gtest/gtest.h>

#include "core/builder.hpp"
#include "core/miner.hpp"
#include "core/tree_view.hpp"
#include "harness/experiment.hpp"
#include "tdb/stats.hpp"
#include "test_support.hpp"
#include "util/args.hpp"

namespace plt {
namespace {

TEST(Edge, BuildPltSkipsEmptyTransactions) {
  // A raw database (not remapped) can contain empty rows; the builder must
  // tolerate them rather than assert.
  tdb::Database db;
  db.add(std::span<const Item>{});
  db.add({1, 2});
  const auto plt = core::build_plt(db, 2);
  EXPECT_EQ(plt.num_vectors(), 1u);
  EXPECT_EQ(plt.total_freq(), 1u);
}

TEST(Edge, TreeViewEmptyPathIsRoot) {
  const auto tree = core::TreeView::full_lexicographic(3);
  EXPECT_EQ(tree.find(core::PosVec{}), core::TreeView::kRoot);
  EXPECT_TRUE(tree.path(core::TreeView::kRoot).empty());
}

TEST(Edge, FindSupportOnEmptyCollection) {
  core::FrequentItemsets empty;
  EXPECT_EQ(empty.find_support(Itemset{1}), 0u);
  EXPECT_TRUE(empty.to_string().empty());
  EXPECT_EQ(empty.max_length(), 0u);
  EXPECT_TRUE(empty.level_counts().empty());
}

TEST(Edge, ArgsNegativeNumberValues) {
  const char* argv[] = {"prog", "--offset", "-5", "--ratio=-1.5"};
  const Args args(4, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("offset", 0), -5);
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), -1.5);
}

TEST(Edge, MineAtThresholdEqualDatabaseSize) {
  const auto db = plt::testing::paper_table1();
  // Only B and C appear in >= 5 of 6 transactions; at 6, nothing survives.
  const auto at5 = core::mine(db, 5, core::Algorithm::kPltConditional);
  EXPECT_EQ(at5.itemsets.size(), 2u);
  const auto at6 = core::mine(db, 6, core::Algorithm::kPltConditional);
  EXPECT_TRUE(at6.itemsets.empty());
  const auto at7 = core::mine(db, 7, core::Algorithm::kFpGrowth);
  EXPECT_TRUE(at7.itemsets.empty());
}

TEST(Edge, ItemZeroIsAValidItem) {
  // FIMI files may use item id 0; the whole stack must handle it.
  const auto db = tdb::Database::from_rows({{0, 1}, {0, 1}, {0}});
  for (const auto algorithm :
       {core::Algorithm::kPltConditional, core::Algorithm::kApriori,
        core::Algorithm::kEclat, core::Algorithm::kFpGrowth}) {
    const auto result = core::mine(db, 2, algorithm);
    EXPECT_EQ(result.itemsets.find_support(Itemset{0}), 3u)
        << core::algorithm_name(algorithm);
    EXPECT_EQ(result.itemsets.find_support(Itemset{0, 1}), 2u)
        << core::algorithm_name(algorithm);
  }
}

TEST(Edge, SingleTransactionDatabase) {
  const auto db = tdb::Database::from_rows({{2, 4, 6}});
  const auto result = core::mine(db, 1, core::Algorithm::kPltTopDownSweep);
  EXPECT_EQ(result.itemsets.size(), 7u);  // all non-empty subsets
  EXPECT_EQ(result.itemsets.find_support(Itemset{2, 4, 6}), 1u);
}

TEST(Edge, StatsOnSingleItemUniverse) {
  tdb::Database db;
  for (int i = 0; i < 10; ++i) db.add({7});
  const auto stats = tdb::compute_stats(db);
  EXPECT_EQ(stats.distinct_items, 1u);
  EXPECT_DOUBLE_EQ(stats.density, 1.0);
  EXPECT_DOUBLE_EQ(stats.support_gini, 0.0);
}

TEST(Edge, SweepWithBruteForceReference) {
  // The facade's brute-force path participates in sweeps like any miner.
  const auto db = plt::testing::paper_table1();
  harness::SweepConfig config;
  config.dataset_name = "table1";
  config.db = &db;
  config.supports = {2};
  config.algorithms = {core::Algorithm::kBruteForce,
                       core::Algorithm::kPltConditional};
  const auto cells = harness::run_sweep(config);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].frequent_itemsets, 13u);
  EXPECT_FALSE(cells[0].failed);
}

TEST(Edge, MaxRankOneAlphabet) {
  // The smallest possible mining universe.
  tdb::Database db;
  for (int i = 0; i < 5; ++i) db.add({9});
  const auto view = core::build_ranked_view(db, 3);
  ASSERT_EQ(view.alphabet(), 1u);
  const auto plt = core::build_plt(view.db, 1);
  EXPECT_EQ(plt.max_len(), 1u);
  EXPECT_EQ(plt.bucket(1).size(), 1u);
}

}  // namespace
}  // namespace plt
