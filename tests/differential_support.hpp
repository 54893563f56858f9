// Shared reference and inputs of the differential suites
// (tree_differential_test, adaptive_differential_test): every mining path
// is pinned to mine_plt_conditional_recursive in raw emission order, on
// the paper's Table 1 at every support, members of both sweep generators,
// quest-sparse at three supports, and degenerate shapes.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/builder.hpp"
#include "core/conditional.hpp"
#include "harness/datasets.hpp"
#include "harness/experiment.hpp"
#include "test_support.hpp"

namespace plt::testing {

/// Raw emission-order equality — stricter than FrequentItemsets::equal,
/// which canonicalizes both sides first.
inline void expect_same_order(const core::FrequentItemsets& expected,
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

inline std::vector<Item> items_of(const core::RankedView& view) {
  std::vector<Item> item_of(view.alphabet());
  for (Rank r = 1; r <= view.alphabet(); ++r) item_of[r - 1] = view.item_of(r);
  return item_of;
}

/// The recursive reference (a fresh Plt per projection, no pooling, no
/// intersection), with or without conditional item filtering.
inline core::FrequentItemsets mine_reference(const tdb::Database& db,
                                             Count minsup,
                                             bool filter_items = true) {
  core::FrequentItemsets out;
  const auto view = core::build_ranked_view(db, minsup);
  if (view.alphabet() == 0) return out;
  core::Plt plt = core::build_plt(view.db, static_cast<Rank>(view.alphabet()));
  std::vector<Item> suffix;
  core::ConditionalOptions options;
  options.filter_conditional_items = filter_items;
  core::mine_plt_conditional_recursive(plt, items_of(view), suffix, minsup,
                                       core::collect_into(out), options);
  return out;
}

/// `reference` regrouped as mine_parallel concatenates it: the reference
/// emits one contiguous block per top-level rank, ranks high to low, and
/// mine_parallel the same blocks (each in the same raw order) ranks low to
/// high. Ranks follow item ids (ItemOrder::kById), so an emission's top
/// rank is that of its largest item.
inline core::FrequentItemsets rank_blocks_ascending(
    const core::FrequentItemsets& reference) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < reference.size(); ++i)
    if (i == 0 ||
        reference.itemset(i).back() != reference.itemset(i - 1).back())
      starts.push_back(i);
  core::FrequentItemsets out;
  for (std::size_t b = starts.size(); b-- > 0;) {
    const std::size_t end =
        b + 1 < starts.size() ? starts[b + 1] : reference.size();
    for (std::size_t i = starts[b]; i < end; ++i)
      out.add(reference.itemset(i), reference.support(i));
  }
  return out;
}

struct DiffCase {
  std::string label;
  tdb::Database db;
  Count minsup;
};

inline std::vector<DiffCase> table1_cases() {
  std::vector<DiffCase> cases;
  for (Count minsup = 1; minsup <= 6; ++minsup)
    cases.push_back({"table1", paper_table1(), minsup});
  return cases;
}

/// Scaled-down members of both sweep generators (bench_dense_sweep and
/// bench_sparse_sweep) plus the short-dense crossover regime.
inline std::vector<DiffCase> sweep_cases() {
  const struct {
    const char* dataset;
    double fraction;
  } cells[] = {
      {"chess-like", 0.85},   {"chess-like", 0.70},
      {"mushroom-like", 0.30}, {"zipf-sparse", 0.01},
      {"quest-sparse", 0.01}, {"short-dense", 0.05},
      {"short-dense", 0.001},
  };
  std::vector<DiffCase> cases;
  for (const auto& c : cells) {
    auto db = harness::scaled_dataset(c.dataset, 0.05);
    const Count minsup = harness::absolute_support(db, c.fraction);
    cases.push_back({c.dataset, std::move(db), minsup});
  }
  return cases;
}

inline std::vector<DiffCase> quest_sparse_cases() {
  const auto db = harness::scaled_dataset("quest-sparse", 0.05);
  std::vector<DiffCase> cases;
  for (const double fraction : {0.02, 0.005, 0.002})
    cases.push_back(
        {"quest-sparse", db, harness::absolute_support(db, fraction)});
  return cases;
}

inline std::vector<DiffCase> degenerate_cases() {
  return {
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
}

}  // namespace plt::testing
