// Subtree cost model (DESIGN.md S25): the cost-model branches each forced
// through a threshold config, and the engine's contract — every forced
// strategy mines the identical itemsets, only the decision counters
// (ProjectionStats::plan_*) change.
#include <gtest/gtest.h>

#include "core/builder.hpp"
#include "core/miner.hpp"
#include "core/planner.hpp"
#include "core/rank.hpp"
#include "test_support.hpp"

namespace plt::core {
namespace {

constexpr Count kMinSup = 2;

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
  ProjectionEngine engine(config);
  engine.mine(tree, item_of, kMinSup, out, {});
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
  EXPECT_GT(defaults.plan_eclat, 0u);  // the tidset strategy intersected

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
