// Subtree cost model (DESIGN.md S25): partition statistics pinned against
// the paper's Table 1 (the shard coordinator's split weights), the
// cost-model branches each forced through a threshold config, and the
// engine's contract — every forced strategy mines the identical itemsets,
// only the decision counters (ProjectionStats::plan_*) change.
#include <gtest/gtest.h>

#include "core/builder.hpp"
#include "core/miner.hpp"
#include "core/planner.hpp"
#include "core/rank.hpp"
#include "tdb/stats.hpp"
#include "test_support.hpp"

namespace plt::core {
namespace {

constexpr Count kMinSup = 2;

tdb::Database ranked_table1() {
  return build_ranked_view(plt::testing::paper_table1(), kMinSup).db;
}

// -- satellite: compute_partition_stats pinned on Table 1 ----------------

// Ranked Table 1 (A..D = 1..4): partition 4 holds ABCD, ABD, BCD, CD —
// conditional prefixes {1,2,3}, {1,2}, {2,3}, {3}.
TEST(PartitionStats, Table1Partition4) {
  const auto s = tdb::compute_partition_stats(ranked_table1(), 4);
  EXPECT_EQ(s.rank, 4u);
  EXPECT_EQ(s.transactions, 4u);
  EXPECT_EQ(s.prefix_items, 8u);
  EXPECT_EQ(s.max_prefix_len, 3u);
  EXPECT_DOUBLE_EQ(s.avg_prefix_len, 2.0);
  EXPECT_NEAR(s.density, 2.0 / 3.0, 1e-12);
  // Prefix supports of ranks 1..3 are {2, 3, 3}: Gini = 1/12.
  EXPECT_NEAR(s.support_gini, 1.0 / 12.0, 1e-12);
}

// Partition 3 holds ABC x2 — two identical full prefixes {1,2}.
TEST(PartitionStats, Table1Partition3) {
  const auto s = tdb::compute_partition_stats(ranked_table1(), 3);
  EXPECT_EQ(s.transactions, 2u);
  EXPECT_EQ(s.prefix_items, 4u);
  EXPECT_EQ(s.max_prefix_len, 2u);
  EXPECT_DOUBLE_EQ(s.avg_prefix_len, 2.0);
  EXPECT_DOUBLE_EQ(s.density, 1.0);
  EXPECT_DOUBLE_EQ(s.support_gini, 0.0);
}

// No Table 1 transaction tops out at rank 1 or 2.
TEST(PartitionStats, Table1EmptyPartitions) {
  const auto db = ranked_table1();
  for (const Rank j : {Rank{1}, Rank{2}}) {
    const auto s = tdb::compute_partition_stats(db, j);
    EXPECT_EQ(s.rank, j);
    EXPECT_EQ(s.transactions, 0u);
    EXPECT_EQ(s.prefix_items, 0u);
    EXPECT_DOUBLE_EQ(s.density, 0.0);
    EXPECT_DOUBLE_EQ(s.support_gini, 0.0);
  }
}

TEST(PartitionStats, AllPartitionsMatchSingleScan) {
  const auto db = ranked_table1();
  const auto all = tdb::compute_all_partition_stats(db, 4);
  ASSERT_EQ(all.size(), 4u);
  for (Rank j = 1; j <= 4; ++j) {
    const auto one = tdb::compute_partition_stats(db, j);
    EXPECT_EQ(all[j - 1].rank, one.rank);
    EXPECT_EQ(all[j - 1].transactions, one.transactions);
    EXPECT_EQ(all[j - 1].prefix_items, one.prefix_items);
    EXPECT_EQ(all[j - 1].max_prefix_len, one.max_prefix_len);
    EXPECT_DOUBLE_EQ(all[j - 1].avg_prefix_len, one.avg_prefix_len);
    EXPECT_DOUBLE_EQ(all[j - 1].density, one.density);
    EXPECT_DOUBLE_EQ(all[j - 1].support_gini, one.support_gini);
  }
}

TEST(PartitionStats, EmptyDatabase) {
  const auto s = tdb::compute_partition_stats(tdb::Database{}, 3);
  EXPECT_EQ(s.rank, 3u);
  EXPECT_EQ(s.transactions, 0u);
  EXPECT_DOUBLE_EQ(s.density, 0.0);
}

// Rank-1 partitions have no conditional prefixes by construction, so every
// prefix statistic is zero even with members present.
TEST(PartitionStats, SingleItemPartition) {
  const auto db = tdb::Database::from_transactions({{1}, {1}, {1}});
  const auto s = tdb::compute_partition_stats(db, 1);
  EXPECT_EQ(s.transactions, 3u);
  EXPECT_EQ(s.prefix_items, 0u);
  EXPECT_EQ(s.max_prefix_len, 0u);
  EXPECT_DOUBLE_EQ(s.density, 0.0);
}

TEST(PartitionStats, AllIdenticalTransactions) {
  const auto db = tdb::Database::from_transactions(
      {{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}});
  const auto s = tdb::compute_partition_stats(db, 3);
  EXPECT_EQ(s.transactions, 4u);
  EXPECT_DOUBLE_EQ(s.density, 1.0);
  EXPECT_DOUBLE_EQ(s.support_gini, 0.0);
}

// Max-rank boundaries: the top partition of compute_all_partition_stats
// absorbs exactly the transactions whose highest rank IS max_rank;
// transactions topping out above the requested range are skipped, not
// misfiled into the top partition, and directly probing a partition above
// every present rank yields the zeroed "no members" shape.
TEST(PartitionStats, MaxRankBoundary) {
  const auto db = tdb::Database::from_transactions(
      {{1, 2, 3, 4}, {2, 4}, {1, 2}, {1, 6}});
  const auto all = tdb::compute_all_partition_stats(db, 4);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[3].rank, 4u);
  EXPECT_EQ(all[3].transactions, 2u);  // {1,2,3,4}, {2,4}; {1,6} tops at 6
  EXPECT_EQ(all[3].prefix_items, 4u);  // prefixes {1,2,3} and {2}
  EXPECT_EQ(all[1].transactions, 1u);  // {1,2}
  EXPECT_EQ(all[0].transactions, 0u);

  const auto s = tdb::compute_partition_stats(db, 5);
  EXPECT_EQ(s.rank, 5u);
  EXPECT_EQ(s.transactions, 0u);
  EXPECT_EQ(s.prefix_items, 0u);
  EXPECT_DOUBLE_EQ(s.density, 0.0);
}

// -- cost-model branches, each forced through the config -----------------

TEST(Planner, SubtreeSinglePathWinsWhenAllowed) {
  const Planner planner;
  SubtreeShape shape;
  shape.records = 1;
  shape.child_ranks = 5;
  shape.single_path = true;
  EXPECT_EQ(planner.choose_subtree(shape), Planner::Subtree::kSinglePath);

  PlanConfig no_single;
  no_single.allow_subtree_single_path = false;
  // A single-path shape is also a small shape, so the veto falls to eclat.
  EXPECT_EQ(Planner(no_single).choose_subtree(shape),
            Planner::Subtree::kEclat);
}

TEST(Planner, SubtreeEclatOnlyForSmallShapes) {
  PlanConfig config;
  config.eclat_max_records = 8;
  config.eclat_max_ranks = 4;
  const Planner planner(config);
  SubtreeShape small;
  small.records = 8;
  small.child_ranks = 4;
  EXPECT_EQ(planner.choose_subtree(small), Planner::Subtree::kEclat);
  SubtreeShape too_many = small;
  too_many.records = 9;
  EXPECT_EQ(planner.choose_subtree(too_many), Planner::Subtree::kPooled);
  SubtreeShape too_deep = small;
  too_deep.child_ranks = 5;
  EXPECT_EQ(planner.choose_subtree(too_deep), Planner::Subtree::kPooled);
}

// -- the engine's decision counters, per forced strategy -----------------

// Table 1 through an engine built with `config`.
ProjectionStats mine_table1(const PlanConfig& config,
                            FrequentItemsets& out) {
  const RankedView view = build_ranked_view(plt::testing::paper_table1(),
                                            kMinSup);
  const auto max_rank = static_cast<Rank>(view.alphabet());
  const TreeView tree = build_tree(view.db, max_rank);
  std::vector<Item> item_of(max_rank);
  for (Rank r = 1; r <= max_rank; ++r) item_of[r - 1] = view.item_of(r);
  std::vector<Item> suffix;
  ProjectionEngine engine(config);
  engine.mine(tree, item_of, suffix, kMinSup, collect_into(out), {});
  return engine.stats();
}

// Forcing each subtree strategy must leave the counters showing only that
// strategy ran (plus the unavoidable pooled frames above it), and the
// default engine — what core::mine runs — must report the same decisions
// as an engine built with the default config.
TEST(Planner, AdaptiveSubtreeCounters) {
  const auto db = plt::testing::paper_table1();
  const auto facade = mine(db, kMinSup, Algorithm::kPltConditional);

  FrequentItemsets defaults_out;
  const ProjectionStats defaults = mine_table1({}, defaults_out);
  EXPECT_EQ(facade.projection.plan_single_path, defaults.plan_single_path);
  EXPECT_EQ(facade.projection.plan_eclat, defaults.plan_eclat);
  EXPECT_EQ(facade.projection.plan_pooled, defaults.plan_pooled);
  EXPECT_GT(defaults.plan_narrow + defaults.plan_wide, 0u);

  PlanConfig pooled_only;
  pooled_only.allow_subtree_single_path = false;
  pooled_only.allow_subtree_eclat = false;
  FrequentItemsets pooled_out;
  const ProjectionStats pooled = mine_table1(pooled_only, pooled_out);
  EXPECT_GT(pooled.plan_pooled, 0u);
  EXPECT_EQ(pooled.plan_single_path, 0u);
  EXPECT_EQ(pooled.plan_eclat, 0u);
  plt::testing::expect_same_itemsets(facade.itemsets, pooled_out,
                                     "pooled only");

  PlanConfig eclat_only = pooled_only;
  eclat_only.allow_subtree_eclat = true;
  eclat_only.eclat_max_records = ~std::size_t{0};
  eclat_only.eclat_max_ranks = ~Rank{0};
  FrequentItemsets eclat_out;
  const ProjectionStats eclat = mine_table1(eclat_only, eclat_out);
  EXPECT_GT(eclat.plan_eclat, 0u);
  EXPECT_EQ(eclat.plan_single_path, 0u);
  EXPECT_EQ(eclat.plan_pooled, 0u);
  plt::testing::expect_same_itemsets(facade.itemsets, eclat_out,
                                     "eclat only");

  PlanConfig with_single = pooled_only;
  with_single.allow_subtree_single_path = true;
  FrequentItemsets single_out;
  const ProjectionStats single = mine_table1(with_single, single_out);
  EXPECT_GT(single.plan_single_path, 0u);
  plt::testing::expect_same_itemsets(facade.itemsets, single_out,
                                     "single-path allowed");
}

}  // namespace
}  // namespace plt::core
