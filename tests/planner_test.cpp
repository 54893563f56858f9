// Adaptive execution planner (DESIGN.md S25): partition statistics pinned
// against the paper's Table 1, the cost-model branches each forced through
// a threshold config, plan-name validation, and the end-to-end contract —
// every plan mines the identical itemsets, only the strategy audit trail
// (MineResult::plan_root, ProjectionStats::plan_*) changes.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/miner.hpp"
#include "core/planner.hpp"
#include "core/rank.hpp"
#include "tdb/stats.hpp"
#include "test_support.hpp"

namespace plt::core {
namespace {

constexpr Count kMinSup = 2;

// Every test leaves the process on the fixed plan (the default) so test
// order can't leak an adaptive selection into unrelated suites.
struct PlanGuard {
  ~PlanGuard() { select_plan("fixed"); }
};

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
  EXPECT_EQ(planner.choose_subtree(shape, nullptr),
            Planner::Subtree::kSinglePath);

  PlanConfig no_single;
  no_single.allow_subtree_single_path = false;
  // A single-path shape is also a small shape, so the veto falls to eclat.
  EXPECT_EQ(Planner(no_single).choose_subtree(shape, nullptr),
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
  EXPECT_EQ(planner.choose_subtree(small, nullptr),
            Planner::Subtree::kEclat);
  SubtreeShape too_many = small;
  too_many.records = 9;
  EXPECT_EQ(planner.choose_subtree(too_many, nullptr),
            Planner::Subtree::kPooled);
  SubtreeShape too_deep = small;
  too_deep.child_ranks = 5;
  EXPECT_EQ(planner.choose_subtree(too_deep, nullptr),
            Planner::Subtree::kPooled);
}

TEST(Planner, SubtreeDensePartitionVetoesEclat) {
  const Planner planner;
  SubtreeShape small;
  small.records = 4;
  small.child_ranks = 3;
  tdb::PartitionStats dense;
  dense.density = 0.95;
  EXPECT_EQ(planner.choose_subtree(small, &dense),
            Planner::Subtree::kPooled);
  tdb::PartitionStats sparse;
  sparse.density = 0.10;
  EXPECT_EQ(planner.choose_subtree(small, &sparse),
            Planner::Subtree::kEclat);
}

TEST(Planner, RootBranches) {
  const auto view = build_ranked_view(plt::testing::paper_table1(), kMinSup);
  const auto stats = tdb::compute_stats(view.db);
  const auto partitions = tdb::compute_all_partition_stats(view.db, 4);

  // Defaults: Table 1 is a shallow lattice at a high threshold (ranked
  // max_len 4, minsup 2/6), so the second eclat gate takes the root.
  EXPECT_EQ(Planner().choose_root(stats, partitions, kMinSup),
            Planner::Root::kEclat);

  // With the vertical root off, projection keeps it.
  PlanConfig no_eclat;
  no_eclat.allow_root_eclat = false;
  EXPECT_EQ(Planner(no_eclat).choose_root(stats, partitions, kMinSup),
            Planner::Root::kConditional);

  // The shallow gate needs BOTH short transactions and a high threshold:
  // tightening either knob past Table 1's shape (ranked max_len 4,
  // frac 1/3) makes it fall back to projection.
  PlanConfig deep;
  deep.root_eclat_max_len = 3;
  EXPECT_EQ(Planner(deep).choose_root(stats, partitions, kMinSup),
            Planner::Root::kConditional);
  PlanConfig low_frac;
  low_frac.root_eclat_min_minsup_frac = 0.5;
  EXPECT_EQ(Planner(low_frac).choose_root(stats, partitions, kMinSup),
            Planner::Root::kConditional);

  PlanConfig force_eclat;
  force_eclat.root_eclat_max_density = 1.0;
  EXPECT_EQ(Planner(force_eclat).choose_root(stats, partitions, kMinSup),
            Planner::Root::kEclat);
}

TEST(Planner, SinglePathProbeUsesFullSuffix) {
  const auto db = tdb::Database::from_transactions(
      {{1, 2, 3}, {1, 2, 3}, {1, 2, 3}});
  Planner planner;
  planner.set_partition_stats(tdb::compute_all_partition_stats(db, 3));
  bool resolved = false;
  // Every partition at or above rank 3 is full (or empty), so CD_3 is a
  // provable single path: no probe, resolved positively.
  EXPECT_FALSE(planner.wants_single_path_probe(3, &resolved));
  EXPECT_TRUE(resolved);
  // Unknown top rank (a nested subtree): the O(records) probe must run.
  EXPECT_TRUE(planner.wants_single_path_probe(0, &resolved));
  EXPECT_FALSE(resolved);

  // A partial partition above poisons the suffix below it.
  Planner mixed;
  mixed.set_partition_stats(tdb::compute_all_partition_stats(
      tdb::Database::from_transactions({{1, 2, 3}, {2, 3}, {1, 2}}), 3));
  EXPECT_TRUE(mixed.wants_single_path_probe(2, &resolved));
  EXPECT_FALSE(resolved);

  PlanConfig no_single;
  no_single.allow_subtree_single_path = false;
  Planner off(no_single);
  off.set_partition_stats(tdb::compute_all_partition_stats(db, 3));
  EXPECT_FALSE(off.wants_single_path_probe(3, &resolved));
  EXPECT_FALSE(resolved);
}

// -- plan selection and the facade audit trail ---------------------------

TEST(Planner, SelectPlanValidation) {
  PlanGuard guard;
  EXPECT_TRUE(select_plan(""));  // keep current
  EXPECT_TRUE(select_plan("adaptive"));
  EXPECT_EQ(active_plan(), PlanMode::kAdaptive);
  EXPECT_FALSE(select_plan("bogus"));
  EXPECT_EQ(active_plan(), PlanMode::kAdaptive);  // failed select is a no-op
  EXPECT_TRUE(select_plan("fixed"));
  EXPECT_EQ(active_plan(), PlanMode::kFixed);
}

TEST(Planner, MineRejectsUnknownPlan) {
  PlanGuard guard;
  MineOptions options;
  options.plan = "bogus";
  EXPECT_THROW(mine(plt::testing::paper_table1(), kMinSup,
                    Algorithm::kPltConditional, options),
               std::invalid_argument);
}

TEST(Planner, AdaptiveRootAuditTrail) {
  PlanGuard guard;
  const auto db = plt::testing::paper_table1();
  const auto fixed = mine(db, kMinSup, Algorithm::kPltConditional);
  EXPECT_EQ(fixed.plan_root, "");

  MineOptions adaptive;
  adaptive.plan = "adaptive";
  // Table 1 trips the shallow-lattice eclat gate by default, so pin the
  // vertical root off to audit the conditional branch.
  adaptive.plan_config.allow_root_eclat = false;
  const auto conditional =
      mine(db, kMinSup, Algorithm::kPltConditional, adaptive);
  EXPECT_EQ(conditional.plan_root, "conditional");
  plt::testing::expect_same_itemsets(fixed.itemsets, conditional.itemsets,
                                     "adaptive conditional");

  MineOptions eclat = adaptive;
  eclat.plan_config.allow_root_eclat = true;
  eclat.plan_config.root_eclat_max_density = 1.0;
  const auto vertical =
      mine(db, kMinSup, Algorithm::kPltConditional, eclat);
  EXPECT_EQ(vertical.plan_root, "eclat");
  plt::testing::expect_same_itemsets(fixed.itemsets, vertical.itemsets,
                                     "adaptive eclat");
}

// Forcing each subtree strategy must leave the counters showing only that
// strategy ran (plus the unavoidable pooled frames above it).
TEST(Planner, AdaptiveSubtreeCounters) {
  PlanGuard guard;
  const auto db = plt::testing::paper_table1();
  const auto fixed = mine(db, kMinSup, Algorithm::kPltConditional);

  MineOptions pooled_only;
  pooled_only.plan = "adaptive";
  pooled_only.plan_config.allow_root_eclat = false;
  pooled_only.plan_config.allow_subtree_single_path = false;
  pooled_only.plan_config.allow_subtree_eclat = false;
  const auto pooled =
      mine(db, kMinSup, Algorithm::kPltConditional, pooled_only);
  EXPECT_GT(pooled.projection.plan_pooled, 0u);
  EXPECT_EQ(pooled.projection.plan_single_path, 0u);
  EXPECT_EQ(pooled.projection.plan_eclat, 0u);
  plt::testing::expect_same_itemsets(fixed.itemsets, pooled.itemsets,
                                     "pooled only");

  MineOptions eclat_only = pooled_only;
  eclat_only.plan_config.allow_subtree_eclat = true;
  eclat_only.plan_config.eclat_max_records = ~std::size_t{0};
  eclat_only.plan_config.eclat_max_ranks = ~Rank{0};
  eclat_only.plan_config.eclat_max_partition_density = 1.5;
  const auto eclat =
      mine(db, kMinSup, Algorithm::kPltConditional, eclat_only);
  EXPECT_GT(eclat.projection.plan_eclat, 0u);
  EXPECT_EQ(eclat.projection.plan_single_path, 0u);
  EXPECT_EQ(eclat.projection.plan_pooled, 0u);
  plt::testing::expect_same_itemsets(fixed.itemsets, eclat.itemsets,
                                     "eclat only");

  MineOptions with_single = pooled_only;
  with_single.plan_config.allow_subtree_single_path = true;
  const auto single =
      mine(db, kMinSup, Algorithm::kPltConditional, with_single);
  EXPECT_GT(single.projection.plan_single_path, 0u);
  plt::testing::expect_same_itemsets(fixed.itemsets, single.itemsets,
                                     "single-path allowed");
}

// The fixed plan must not consult the planner at all: its projection
// counters stay zero, keeping golden traces and published numbers intact.
TEST(Planner, FixedPlanLeavesNoPlanCounters) {
  PlanGuard guard;
  const auto fixed =
      mine(plt::testing::paper_table1(), kMinSup,
           Algorithm::kPltConditional);
  EXPECT_EQ(fixed.projection.plan_pooled, 0u);
  EXPECT_EQ(fixed.projection.plan_single_path, 0u);
  EXPECT_EQ(fixed.projection.plan_eclat, 0u);
  EXPECT_EQ(fixed.projection.plan_narrow, 0u);
  EXPECT_EQ(fixed.projection.plan_wide, 0u);
}

}  // namespace
}  // namespace plt::core
