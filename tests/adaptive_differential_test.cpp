// Differential suite for the entry points that run the projection engine
// outside core::mine: mine_parallel at 1, 2 and 4 threads (its per-rank
// blocks in ascending rank order), and mine_from_blob over the full rank
// range and two rank windows, each pinned to the recursive reference in
// raw emission order (DESIGN.md S25 proves the engine's two subtree
// strategies are emission-order invariant, which is what keeps OOC
// checkpoint logs and shard merges exact). Together with
// tree_differential_test every path runs on Table 1, both sweep
// generators, quest-sparse at three supports and degenerate shapes. Runs
// with structural validation on, and under tsan via the threaded label
// (worker engines share one tree).
#include <gtest/gtest.h>

#include <string>

#include "compress/codec.hpp"
#include "compress/ooc_miner.hpp"
#include "core/miner.hpp"
#include "core/validate.hpp"
#include "differential_support.hpp"
#include "parallel/partition_miner.hpp"

namespace plt {
namespace {

using testing::DiffCase;
using testing::expect_same_order;

// mine_parallel concatenates its per-rank slots ranks low to high, each
// slot in the reference's raw order.
void check_parallel(const DiffCase& c,
                    const core::FrequentItemsets& truth) {
  const core::FrequentItemsets expected =
      testing::rank_blocks_ascending(truth);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    parallel::ParallelOptions options;
    options.threads = threads;
    expect_same_order(expected,
                      parallel::mine_parallel(c.db, c.minsup, options).itemsets,
                      "mine_parallel " + std::to_string(threads) + " threads");
  }
}

core::FrequentItemsets mine_blob(const std::vector<std::uint8_t>& blob,
                                 const std::vector<Item>& item_of,
                                 Count minsup, Rank lo, Rank hi) {
  core::FrequentItemsets out;
  compress::OocOptions options;
  options.rank_lo = lo;
  options.rank_hi = hi;
  EXPECT_EQ(compress::mine_from_blob(blob, item_of, minsup,
                                     core::collect_into(out), nullptr,
                                     options),
            core::MineStatus::kCompleted);
  return out;
}

// The full range, then the windows [mid+1, max_rank] and [1, mid]: each
// window must emit exactly its slice of the reference. Ranks follow item
// ids (ItemOrder::kById), so an emission's top rank is above mid exactly
// when its largest item is above item_of[mid-1].
void check_blob(const DiffCase& c, const core::FrequentItemsets& truth) {
  const auto built = core::build_from_database(c.db, c.minsup);
  const auto max_rank = static_cast<Rank>(built.view.alphabet());
  if (max_rank == 0) return;  // an empty blob has no rank window to mine
  const auto blob = compress::encode_plt(built.plt);
  const std::vector<Item> item_of = testing::items_of(built.view);
  expect_same_order(truth, mine_blob(blob, item_of, c.minsup, 0, 0),
                    "mine_from_blob full range");
  if (max_rank < 2) return;
  const Rank mid = max_rank / 2;
  core::FrequentItemsets high;
  core::FrequentItemsets low;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const auto items = truth.itemset(i);
    (items.back() > item_of[mid - 1] ? high : low)
        .add(items, truth.support(i));
  }
  expect_same_order(high,
                    mine_blob(blob, item_of, c.minsup, mid + 1, max_rank),
                    "mine_from_blob upper window");
  expect_same_order(low, mine_blob(blob, item_of, c.minsup, 1, mid),
                    "mine_from_blob lower window");
}

void check_entry_points(const DiffCase& c) {
  SCOPED_TRACE(c.label + " minsup " + std::to_string(c.minsup));
  const core::FrequentItemsets truth = testing::mine_reference(c.db, c.minsup);
  check_parallel(c, truth);
  check_blob(c, truth);
}

TEST(AdaptiveDifferential, Table1EverySupport) {
  for (const DiffCase& c : testing::table1_cases()) check_entry_points(c);
}

TEST(AdaptiveDifferential, SweepGenerators) {
  const core::ValidationScope validating;
  for (const DiffCase& c : testing::sweep_cases()) check_entry_points(c);
}

TEST(AdaptiveDifferential, ParallelThreadCounts) {
  for (const auto& cases :
       {testing::quest_sparse_cases(), testing::degenerate_cases()})
    for (const DiffCase& c : cases) {
      SCOPED_TRACE(c.label + " minsup " + std::to_string(c.minsup));
      check_parallel(c, testing::mine_reference(c.db, c.minsup));
    }
}

TEST(AdaptiveDifferential, OutOfCoreBlobPath) {
  for (const auto& cases :
       {testing::quest_sparse_cases(), testing::degenerate_cases()})
    for (const DiffCase& c : cases) {
      SCOPED_TRACE(c.label + " minsup " + std::to_string(c.minsup));
      check_blob(c, testing::mine_reference(c.db, c.minsup));
    }
}

}  // namespace
}  // namespace plt
