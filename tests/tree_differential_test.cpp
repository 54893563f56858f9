// Differential suite for the tree-fed top level: Algorithm 3's top level
// reads the physical tree (CD_j off parent links) instead of re-inserting
// every peeled prefix into a table. On Table 1, both sweep generators,
// quest-sparse and degenerate shapes, core::mine under the fixed and the
// (root-pinned) adaptive plan must emit exactly what the recursive
// reference emits, in raw order, and do exactly the projection work the
// table-fed engine does. mine_parallel's workers run the same per-rank
// step against one shared tree, so under tsan (threaded label) this also
// covers concurrent readers of that tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "core/builder.hpp"
#include "core/conditional.hpp"
#include "core/miner.hpp"
#include "core/planner.hpp"
#include "core/projection_pool.hpp"
#include "harness/datasets.hpp"
#include "harness/experiment.hpp"
#include "parallel/partition_miner.hpp"
#include "tdb/stats.hpp"
#include "test_support.hpp"

namespace plt {
namespace {

void expect_same_order(const core::FrequentItemsets& expected,
                       const core::FrequentItemsets& actual,
                       const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected.support(i), actual.support(i))
        << label << " at emission " << i;
    const auto a = expected.itemset(i);
    const auto b = actual.itemset(i);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << label << " at emission " << i;
  }
}

// The root stays on the conditional engine, so only per-subtree
// strategies vary — the regime where raw order is plan-invariant.
core::PlanConfig pinned_root() {
  core::PlanConfig config;
  config.allow_root_eclat = false;
  return config;
}

std::vector<Item> items_of(const core::RankedView& view) {
  std::vector<Item> item_of(view.alphabet());
  for (Rank r = 1; r <= view.alphabet(); ++r) item_of[r - 1] = view.item_of(r);
  return item_of;
}

core::FrequentItemsets mine_recursive(const tdb::Database& db,
                                      Count minsup) {
  core::FrequentItemsets out;
  const auto view = core::build_ranked_view(db, minsup);
  if (view.alphabet() == 0) return out;
  core::Plt plt = core::build_plt(view.db, static_cast<Rank>(view.alphabet()));
  std::vector<Item> suffix;
  core::mine_plt_conditional_recursive(plt, items_of(view), suffix, minsup,
                                       core::collect_into(out), {});
  return out;
}

// The pooled engine fed the table form (prefixes re-inserted), with the
// facade's planner set-up when the plan is adaptive.
core::ProjectionStats mine_table_fed(const tdb::Database& db, Count minsup,
                                     core::PlanMode plan,
                                     core::FrequentItemsets& out) {
  const auto view = core::build_ranked_view(db, minsup);
  if (view.alphabet() == 0) return {};
  const auto max_rank = static_cast<Rank>(view.alphabet());
  core::Plt plt = core::build_plt(view.db, max_rank);
  core::ProjectionEngine engine;
  std::optional<core::Planner> planner;
  if (plan == core::PlanMode::kAdaptive) {
    planner.emplace(pinned_root());
    planner->set_partition_stats(
        tdb::compute_all_partition_stats(view.db, max_rank));
    engine.set_planner(&*planner);
  }
  std::vector<Item> suffix;
  engine.mine(plt, items_of(view), suffix, minsup, core::collect_into(out),
              {});
  return engine.stats();
}

void check_case(const tdb::Database& db, Count minsup,
                const std::string& label) {
  SCOPED_TRACE(label + " minsup " + std::to_string(minsup));
  const core::FrequentItemsets truth = mine_recursive(db, minsup);
  for (const core::PlanMode plan :
       {core::PlanMode::kFixed, core::PlanMode::kAdaptive}) {
    const std::string name = core::plan_name(plan);
    core::MineOptions options;
    options.plan = plan;
    options.plan_config = pinned_root();
    const core::MineResult tree_fed =
        core::mine(db, minsup, core::Algorithm::kPltConditional, options);
    expect_same_order(truth, tree_fed.itemsets, name + " core::mine");

    core::FrequentItemsets table_out;
    const core::ProjectionStats table =
        mine_table_fed(db, minsup, plan, table_out);
    expect_same_order(truth, table_out, name + " table-fed engine");
    const core::ProjectionStats& tree = tree_fed.projection;
    EXPECT_EQ(tree.projections_built, table.projections_built) << name;
    EXPECT_EQ(tree.entries_projected, table.entries_projected) << name;
    EXPECT_EQ(tree.plan_pooled, table.plan_pooled) << name;
    EXPECT_EQ(tree.plan_single_path, table.plan_single_path) << name;
    EXPECT_EQ(tree.plan_eclat, table.plan_eclat) << name;

    core::FrequentItemsets one_thread;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      parallel::ParallelOptions parallel;
      parallel.threads = threads;
      parallel.plan = plan;
      parallel.plan_config = pinned_root();
      const core::MineResult result =
          parallel::mine_parallel(db, minsup, parallel);
      testing::expect_same_itemsets(truth, result.itemsets,
                                    "mine_parallel vs core::mine");
      if (threads == 1)
        one_thread = result.itemsets;
      else
        expect_same_order(one_thread, result.itemsets,
                          name + " mine_parallel " + std::to_string(threads) +
                              " threads");
    }
  }
}

TEST(TreeDifferential, Table1EverySupport) {
  const auto db = testing::paper_table1();
  for (Count minsup = 1; minsup <= 6; ++minsup)
    check_case(db, minsup, "table1");
}

// Scaled-down members of both sweep generators (bench_dense_sweep and
// bench_sparse_sweep).
TEST(TreeDifferential, SweepGenerators) {
  const struct {
    const char* dataset;
    double scale;
    double fraction;
  } cases[] = {
      {"chess-like", 0.05, 0.80},
      {"mushroom-like", 0.05, 0.30},
      {"zipf-sparse", 0.05, 0.01},
  };
  for (const auto& c : cases) {
    const auto db = harness::scaled_dataset(c.dataset, c.scale);
    check_case(db, harness::absolute_support(db, c.fraction), c.dataset);
  }
}

TEST(TreeDifferential, QuestSparseThreeSupports) {
  const auto db = harness::scaled_dataset("quest-sparse", 0.05);
  for (const double fraction : {0.02, 0.005, 0.002})
    check_case(db, harness::absolute_support(db, fraction), "quest-sparse");
}

TEST(TreeDifferential, DegenerateShapes) {
  const struct {
    const char* label;
    tdb::Database db;
    Count minsup;
  } cases[] = {
      {"no frequent item", tdb::Database::from_rows({{1}, {2}, {3}}), 2},
      {"one row", tdb::Database::from_rows({{2, 3, 5, 8}}), 1},
      {"identical rows",
       tdb::Database::from_rows(
           {{1, 3, 5, 7}, {1, 3, 5, 7}, {1, 3, 5, 7}, {1, 3, 5, 7}}),
       2},
      {"only 1-item rows",
       tdb::Database::from_rows({{1}, {2}, {2}, {3}, {3}, {3}}), 1},
      {"one rank", tdb::Database::from_rows({{4}, {4}, {4}}), 1},
      {"a row holding every rank",
       tdb::Database::from_rows(
           {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {2, 5}, {3, 9}, {10}}),
       1},
  };
  for (const auto& c : cases) check_case(c.db, c.minsup, c.label);
}

}  // namespace
}  // namespace plt
