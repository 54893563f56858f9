// Projection-pool engine tests: differential agreement of the pooled
// iterative Algorithm 3 against the seed recursive path and FP-growth on
// randomized dense + sparse databases, recycling/counter semantics, the
// 8-record, 8-rank bound of the tidset strategy, the flat conditional
// database's layout, and byte-identical determinism of the work-stealing
// parallel miner across thread counts. (The in-place tree rebuild behind
// every pooled frame is tested in tree_view_test.)
#include <gtest/gtest.h>

#include <algorithm>

#include "core/builder.hpp"
#include "core/conditional.hpp"
#include "core/miner.hpp"
#include "core/projection_pool.hpp"
#include "core/tree_view.hpp"
#include "datagen/quest.hpp"
#include "parallel/partition_miner.hpp"
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

FrequentItemsets mine_pooled(const tdb::Database& db, Count minsup,
                             ProjectionEngine* engine = nullptr,
                             bool filter = true) {
  FrequentItemsets out;
  const auto view = build_ranked_view(db, minsup);
  if (view.alphabet() == 0) return out;
  const auto max_rank = static_cast<Rank>(view.alphabet());
  const TreeView tree = TreeView::from_plt(build_plt(view.db, max_rank));
  std::vector<Item> item_of(max_rank);
  for (Rank r = 1; r <= max_rank; ++r) item_of[r - 1] = view.item_of(r);
  ConditionalOptions options;
  options.filter_conditional_items = filter;
  ProjectionEngine local;
  ProjectionEngine& used = engine ? *engine : local;
  used.mine(tree, item_of, minsup, out, options);
  return out;
}

FrequentItemsets mine_recursive(const tdb::Database& db, Count minsup) {
  FrequentItemsets out;
  const auto view = build_ranked_view(db, minsup);
  if (view.alphabet() == 0) return out;
  const auto max_rank = static_cast<Rank>(view.alphabet());
  Plt plt = build_plt(view.db, max_rank);
  std::vector<Item> item_of(max_rank);
  for (Rank r = 1; r <= max_rank; ++r) item_of[r - 1] = view.item_of(r);
  std::vector<Item> suffix;
  mine_plt_conditional_recursive(plt, item_of, suffix, minsup,
                                 collect_into(out), {});
  return out;
}

/// Raw, order-sensitive equality — stricter than FrequentItemsets::equal.
void expect_byte_identical(const FrequentItemsets& a,
                           const FrequentItemsets& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto ia = a.itemset(i), ib = b.itemset(i);
    ASSERT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin(), ib.end()))
        << label << " itemset " << i;
    ASSERT_EQ(a.support(i), b.support(i)) << label << " support " << i;
  }
}

TEST(ProjectionPool, DifferentialAgainstRecursiveAndFpGrowth) {
  // >= 20 randomized cases across sparse and dense shapes; the pooled
  // engine, the seed recursive path and FP-growth must emit identical
  // itemset/support sets.
  struct Shape {
    std::size_t transactions, items;
    double density;
  };
  const Shape shapes[] = {
      {120, 24, 0.18},  // sparse
      {90, 12, 0.55},   // dense
  };
  int cases = 0;
  for (const Shape& shape : shapes) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto db =
          random_db(seed * 97 + 3, shape.transactions, shape.items,
                    shape.density);
      for (const Count minsup : {2u, 5u}) {
        const auto pooled = mine_pooled(db, minsup);
        const auto recursive = mine_recursive(db, minsup);
        const auto fp = mine(db, minsup, Algorithm::kFpGrowth);
        plt::testing::expect_same_itemsets(recursive, pooled,
                                           "pooled vs recursive");
        plt::testing::expect_same_itemsets(fp.itemsets, pooled,
                                           "pooled vs fp-growth");
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 20);
}

TEST(ProjectionPool, PooledEmissionOrderMatchesRecursive) {
  // The explicit-stack rewrite must preserve the recursive path's exact
  // emission order, not just the canonical set.
  for (std::uint64_t seed = 40; seed <= 44; ++seed) {
    const auto db = random_db(seed, 100, 14, 0.4);
    expect_byte_identical(mine_recursive(db, 3), mine_pooled(db, 3),
                          "emission order");
  }
}

TEST(ProjectionPool, UnfilteredVariantAgrees) {
  const auto db = random_db(7, 80, 10, 0.35);
  const auto filtered = mine_pooled(db, 3, nullptr, true);
  const auto unfiltered = mine_pooled(db, 3, nullptr, false);
  plt::testing::expect_same_itemsets(filtered, unfiltered, "filter on/off");
}

TEST(ProjectionPool, EngineReuseAcrossMinesIsClean) {
  // One engine mining many databases must not leak state between runs —
  // this is the parallel miner's per-worker usage pattern.
  ProjectionEngine engine;
  for (std::uint64_t seed = 20; seed <= 25; ++seed) {
    const auto db = random_db(seed, 70, 11, 0.45);
    const auto fresh = mine_pooled(db, 2);
    const auto reused = mine_pooled(db, 2, &engine);
    expect_byte_identical(fresh, reused, "engine reuse");
  }
  EXPECT_GT(engine.stats().recycled_allocations, 0u);
  EXPECT_GT(engine.memory_usage(), 0u);
}

TEST(ProjectionPool, RecyclingDominatesOnDeepWorkloads) {
  // A 14-item transaction repeated: deep conditional chains with many
  // siblings per depth. Every conditional database is one record; those
  // over more than 8 ranks (child ranks 13 down to 9) are projected, the
  // rest intersected. The pool holds one frame per depth, so recycled
  // acquisitions must dwarf fresh ones (the acceptance criterion's >= 2x).
  tdb::Database db;
  std::vector<Item> row;
  for (Item i = 1; i <= 14; ++i) row.push_back(i);
  for (int i = 0; i < 3; ++i) db.add(row);
  ProjectionEngine engine;
  const auto mined = mine_pooled(db, 3, &engine);
  EXPECT_EQ(mined.size(), (1u << 14) - 1);
  const ProjectionStats& stats = engine.stats();
  EXPECT_GT(stats.projections_built, 0u);
  EXPECT_GT(stats.entries_projected, 0u);
  EXPECT_GE(stats.recycled_allocations, 2 * stats.fresh_allocations);
  // Every projection beyond the first per depth reused a pooled frame.
  EXPECT_EQ(stats.recycled_allocations + stats.fresh_allocations,
            stats.projections_built);
  EXPECT_GT(stats.bytes_recycled, 0u);
}

// Mines only the top rank of `rows` (distinct rows of ranks 1..max_rank,
// each ending in max_rank) at support 1: its CD is one record per row.
ProjectionStats mine_top_rank(const std::vector<std::vector<Item>>& rows,
                              Rank max_rank) {
  tdb::Database db;
  for (const auto& r : rows) db.add(r);
  const TreeView tree = TreeView::from_ranked_rows(db, max_rank);
  std::vector<Item> item_of(max_rank);
  for (Rank r = 1; r <= max_rank; ++r) item_of[r - 1] = r;
  ProjectionEngine engine;
  FrequentItemsets out;
  engine.mine_rank(tree, max_rank, item_of, 1, out, {});
  return engine.stats();
}

TEST(ProjectionPool, SmallConditionalDatabasesAreIntersected) {
  // A conditional database of at most 8 records over at most 8 surviving
  // ranks is mined by tidset intersection; one record or one rank more and
  // it is projected into a pooled frame.
  const ProjectionStats eight = mine_top_rank(
      {{1, 9}, {2, 9}, {3, 9}, {4, 9}, {5, 9}, {6, 9}, {7, 9}, {8, 9}}, 9);
  EXPECT_EQ(eight.ranks_processed, 1u);
  EXPECT_EQ(eight.entries_projected, 8u);
  EXPECT_EQ(eight.plan_eclat, 1u);
  EXPECT_EQ(eight.projections_built, 0u);

  const ProjectionStats nine_records = mine_top_rank(
      {{1, 9}, {2, 9}, {3, 9}, {4, 9}, {5, 9}, {6, 9}, {7, 9}, {8, 9},
       {1, 2, 9}},
      9);
  EXPECT_EQ(nine_records.projections_built, 1u);

  const ProjectionStats nine_ranks = mine_top_rank(
      {{1, 10}, {2, 10}, {3, 10}, {4, 10}, {5, 10}, {6, 10}, {7, 10},
       {8, 9, 10}},
      10);
  EXPECT_EQ(nine_ranks.projections_built, 1u);
}

TEST(ProjectionPool, FlatCondDbLayout) {
  // Rows {1,2,4} x3 and {4} x7: push_path records a node's root path as
  // ascending ranks, read off the tree's parent links, and adds its weight
  // to each of those ranks' support.
  TreeView::Rows rows;
  rows.add(PosVec{1, 1, 2}, 3);
  rows.add(PosVec{4}, 7);
  const TreeView tree = TreeView::from_rows(rows, 4, "FlatCondDbLayout");
  const TreeView::NodeId deep = tree.find(PosVec{1, 1, 2});
  const TreeView::NodeId top = tree.find(PosVec{4});
  ASSERT_NE(deep, TreeView::kRoot);
  ASSERT_NE(top, TreeView::kRoot);

  FlatCondDb db;
  std::vector<Count> support(4, 0);
  db.push_path(tree, deep, 3, support);
  db.push_path(tree, top, 7, support);
  ASSERT_EQ(db.size(), 2u);
  const auto& records = db.records();
  EXPECT_EQ(records[0].offset, 0u);
  EXPECT_EQ(records[0].len, 3u);
  EXPECT_EQ(records[0].freq, 3u);
  EXPECT_EQ(records[1].offset, 3u);
  EXPECT_EQ(records[1].len, 1u);
  EXPECT_EQ(records[1].freq, 7u);
  const auto deep_ranks = db.ranks(records[0]);
  EXPECT_EQ(std::vector<Rank>(deep_ranks.begin(), deep_ranks.end()),
            (std::vector<Rank>{1, 2, 4}));
  EXPECT_EQ(db.ranks(records[1])[0], 4u);
  EXPECT_EQ(db.rank_count(), 4u);
  EXPECT_EQ(support, (std::vector<Count>{3, 3, 0, 10}));
  db.clear();
  EXPECT_TRUE(db.empty());
}

TEST(ProjectionPool, MineResultCarriesProjectionStats) {
  const auto db = random_db(31, 120, 14, 0.4);
  const auto result = mine(db, 3, Algorithm::kPltConditional);
  EXPECT_GT(result.projection.projections_built, 0u);
  EXPECT_GT(result.projection.entries_projected, 0u);
  // Baselines don't project through the engine.
  const auto fp = mine(db, 3, Algorithm::kFpGrowth);
  EXPECT_EQ(fp.projection.projections_built, 0u);
}

TEST(ProjectionPool, MemoryUsageCountsTheConditionalDatabase) {
  // Above every rank's support nothing is emitted or projected, so no
  // frame exists; the engine still holds the largest top-level CD_j, and
  // a memory budget must see it.
  const auto db = random_db(5, 200, 16, 0.5);
  const TreeView tree = TreeView::from_ranked_rows(db, 16);
  std::vector<Item> item_of(16);
  for (Item i = 1; i <= 16; ++i) item_of[i - 1] = i;
  std::size_t largest = 0;
  for (Rank j = 1; j <= 16; ++j) {
    std::size_t positions = 0;
    for (const TreeView::NodeId id : tree.bucket(j))
      tree.climb(tree.node(id).parent, [&](Pos) { ++positions; });
    largest = std::max(largest, positions);
  }
  ProjectionEngine engine;
  FrequentItemsets out;
  engine.mine(tree, item_of, db.size() + 1, out, {});
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(engine.stats().projections_built, 0u);
  EXPECT_GE(engine.memory_usage(), largest * sizeof(Rank));
}

TEST(ProjectionPool, ParallelByteIdenticalAcrossThreadCounts) {
  datagen::QuestConfig cfg;
  cfg.transactions = 350;
  cfg.items = 50;
  cfg.seed = 17;
  const auto db = datagen::generate_quest(cfg);
  const Count minsup = 3;

  parallel::ParallelOptions base;
  base.threads = 1;
  const auto reference = parallel::mine_parallel(db, minsup, base);
  ASSERT_GT(reference.itemsets.size(), 0u);
  for (const std::size_t threads : {2u, 8u}) {
    parallel::ParallelOptions options;
    options.threads = threads;
    const auto result = parallel::mine_parallel(db, minsup, options);
    expect_byte_identical(reference.itemsets, result.itemsets,
                          "thread count determinism");
  }
}

TEST(ProjectionPool, ParallelStealsAccountedWithManyWorkers) {
  datagen::QuestConfig cfg;
  cfg.transactions = 300;
  cfg.items = 40;
  cfg.seed = 23;
  const auto db = datagen::generate_quest(cfg);
  parallel::ParallelOptions options;
  options.threads = 8;
  const auto result = parallel::mine_parallel(db, 3, options);
  // Counters aggregate across workers; steal count is workload-dependent
  // but the projection counters must be deterministic.
  const auto again = parallel::mine_parallel(db, 3, options);
  EXPECT_EQ(result.projection.projections_built,
            again.projection.projections_built);
  EXPECT_EQ(result.projection.entries_projected,
            again.projection.entries_projected);
}

}  // namespace
}  // namespace plt::core
