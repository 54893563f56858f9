// Differential suite for the projection engine, which mines each subtree
// by pooled projection or tidset intersection: on Table 1, both sweep
// generators, quest-sparse and degenerate shapes, every way of feeding it
// must emit exactly what the recursive reference emits, in raw order —
//   * core::mine (the tree-fed top level, CD_j off parent links);
//   * the engine fed the tree of the table form (TreeView::from_plt, the
//     rows-to-tree builder the blob miner also runs);
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

// The engine fed the tree of the ranked view's table form.
core::FrequentItemsets mine_table_fed(const tdb::Database& db, Count minsup) {
  core::FrequentItemsets out;
  const auto view = core::build_ranked_view(db, minsup);
  if (view.alphabet() == 0) return out;
  const auto max_rank = static_cast<Rank>(view.alphabet());
  const core::TreeView tree =
      core::TreeView::from_plt(core::build_plt(view.db, max_rank));
  core::ProjectionEngine engine;
  engine.mine(tree, items_of(view), minsup, out, {});
  return out;
}

void check_case(const DiffCase& c) {
  SCOPED_TRACE(c.label + " minsup " + std::to_string(c.minsup));
  const core::FrequentItemsets truth = testing::mine_reference(c.db, c.minsup);

  const core::MineResult tree_fed =
      core::mine(c.db, c.minsup, core::Algorithm::kPltConditional);
  expect_same_order(truth, tree_fed.itemsets, "core::mine");

  expect_same_order(truth, mine_table_fed(c.db, c.minsup),
                    "engine fed the table form's tree");

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
