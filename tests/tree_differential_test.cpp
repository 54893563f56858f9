// Differential suite for the projection engine, which always runs its
// subtree cost model: on Table 1, both sweep generators, quest-sparse and
// degenerate shapes, every engine configuration must emit exactly what the
// recursive reference emits, in raw order —
//   * core::mine (the tree-fed top level, CD_j off parent links);
//   * the engine fed the tree of the table form (TreeView::from_plt, the
//     rows-to-tree builder the blob miner also runs);
//   * the engine forced through PlanConfig to pooled-only, to single-path
//     without Eclat, and to Eclat for every shape;
//   * the no-filter ablation, against the reference with filtering off.
// The threaded label keeps these suites under TSan with the parallel and
// out-of-core entry points of adaptive_differential_test.
#include <gtest/gtest.h>

#include <string>

#include "core/miner.hpp"
#include "core/projection_pool.hpp"
#include "differential_support.hpp"

namespace plt {
namespace {

using testing::DiffCase;
using testing::expect_same_order;
using testing::items_of;

// The engine built with `config`, fed the tree of the ranked view (as
// core::mine does) or the tree of its table form.
core::ProjectionStats mine_engine(const tdb::Database& db, Count minsup,
                                  const core::PlanConfig& config,
                                  bool table_fed,
                                  core::FrequentItemsets& out) {
  const auto view = core::build_ranked_view(db, minsup);
  if (view.alphabet() == 0) return {};
  const auto max_rank = static_cast<Rank>(view.alphabet());
  const core::TreeView tree =
      table_fed ? core::TreeView::from_plt(core::build_plt(view.db, max_rank))
                : core::build_tree(view.db, max_rank);
  core::ProjectionEngine engine(config);
  engine.mine(tree, items_of(view), minsup, out, {});
  return engine.stats();
}

core::PlanConfig single_path_without_eclat() {
  core::PlanConfig config;
  config.allow_subtree_eclat = false;
  return config;
}

core::PlanConfig eclat_for_every_shape() {
  core::PlanConfig config;
  config.allow_subtree_single_path = false;
  config.eclat_max_records = ~std::size_t{0};
  config.eclat_max_ranks = ~Rank{0};
  return config;
}

void check_case(const DiffCase& c) {
  SCOPED_TRACE(c.label + " minsup " + std::to_string(c.minsup));
  const core::FrequentItemsets truth = testing::mine_reference(c.db, c.minsup);

  const core::MineResult tree_fed =
      core::mine(c.db, c.minsup, core::Algorithm::kPltConditional);
  expect_same_order(truth, tree_fed.itemsets, "core::mine");

  core::FrequentItemsets table_out;
  (void)mine_engine(c.db, c.minsup, {}, /*table_fed=*/true, table_out);
  expect_same_order(truth, table_out, "engine fed the table form's tree");

  const struct {
    const char* label;
    core::PlanConfig config;
  } forced[] = {
      {"pooled-only engine", testing::pooled_only()},
      {"single-path engine without eclat", single_path_without_eclat()},
      {"eclat-for-every-shape engine", eclat_for_every_shape()},
  };
  for (const auto& f : forced) {
    core::FrequentItemsets out;
    const core::ProjectionStats stats =
        mine_engine(c.db, c.minsup, f.config, /*table_fed=*/false, out);
    expect_same_order(truth, out, f.label);
    if (!f.config.allow_subtree_eclat) EXPECT_EQ(stats.plan_eclat, 0u);
    if (!f.config.allow_subtree_single_path)
      EXPECT_EQ(stats.plan_single_path, 0u);
  }

  expect_same_order(
      testing::mine_reference(c.db, c.minsup, /*filter_items=*/false),
      core::mine(c.db, c.minsup, core::Algorithm::kPltConditionalNoFilter)
          .itemsets,
      "no-filter ablation");
}

TEST(TreeDifferential, Table1EverySupport) {
  for (const DiffCase& c : testing::table1_cases()) check_case(c);
}

TEST(TreeDifferential, SweepGenerators) {
  for (const DiffCase& c : testing::sweep_cases()) check_case(c);
}

TEST(TreeDifferential, QuestSparseThreeSupports) {
  for (const DiffCase& c : testing::quest_sparse_cases()) check_case(c);
}

TEST(TreeDifferential, DegenerateShapes) {
  for (const DiffCase& c : testing::degenerate_cases()) check_case(c);
}

}  // namespace
}  // namespace plt
