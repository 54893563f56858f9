// Differential suite for the adaptive execution planner: on the paper's
// Table 1 and scaled-down versions of both sweep generators, the adaptive
// plan must produce exactly what the fixed plan produces — canonically
// always, and in raw emission order whenever the root strategy is pinned
// (DESIGN.md S25 proves per-subtree strategies are emission-order
// invariant, which is what keeps OOC checkpoint logs exact across plans).
// Runs with structural validation on, and under tsan via the threaded
// label (plans are shared immutably across parallel workers).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "compress/codec.hpp"
#include "compress/ooc_miner.hpp"
#include "core/builder.hpp"
#include "core/miner.hpp"
#include "core/planner.hpp"
#include "core/validate.hpp"
#include "harness/datasets.hpp"
#include "harness/experiment.hpp"
#include "parallel/partition_miner.hpp"
#include "test_support.hpp"

namespace plt {
namespace {

struct PlanGuard {
  ~PlanGuard() { core::select_plan("fixed"); }
};

// Raw emission-order equality — stricter than FrequentItemsets::equal,
// which canonicalizes both sides first.
void expect_same_order(const core::FrequentItemsets& fixed,
                       const core::FrequentItemsets& adaptive,
                       const char* label) {
  ASSERT_EQ(fixed.size(), adaptive.size()) << label;
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    ASSERT_EQ(fixed.support(i), adaptive.support(i))
        << label << " at emission " << i;
    const auto a = fixed.itemset(i);
    const auto b = adaptive.itemset(i);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << label << " at emission " << i;
  }
}

// A config that pins the root to the conditional engine so only the
// per-subtree strategies differ — the regime where raw order must match.
core::PlanConfig subtree_only() {
  core::PlanConfig config;
  config.allow_root_eclat = false;
  return config;
}

// MineOptions::plan switches the process-wide selection (mirroring
// kernel_backend), so baselines must pin "fixed" explicitly — an earlier
// adaptive run in the same test would otherwise leak into them.
core::MineOptions fixed_plan() {
  core::MineOptions options;
  options.plan = "fixed";
  return options;
}

TEST(AdaptiveDifferential, Table1EverySupport) {
  PlanGuard guard;
  const auto db = testing::paper_table1();
  for (Count minsup = 1; minsup <= 6; ++minsup) {
    const auto fixed = core::mine(db, minsup, core::Algorithm::kPltConditional,
                                  fixed_plan());

    core::MineOptions adaptive;
    adaptive.plan = "adaptive";
    const auto planned =
        core::mine(db, minsup, core::Algorithm::kPltConditional, adaptive);
    testing::expect_same_itemsets(fixed.itemsets, planned.itemsets,
                                  "table1 adaptive");

    core::MineOptions pinned = adaptive;
    pinned.plan_config = subtree_only();
    const auto ordered =
        core::mine(db, minsup, core::Algorithm::kPltConditional, pinned);
    expect_same_order(fixed.itemsets, ordered.itemsets, "table1 raw order");
  }
}

// Both sweep generators at bench scale-down: the exact matrix
// bench_adaptive times, here only checked for output identity.
TEST(AdaptiveDifferential, SweepGenerators) {
  PlanGuard guard;
  core::set_validation_enabled(true);
  const struct {
    const char* dataset;
    double scale;
    double fraction;
  } cases[] = {
      {"quest-sparse", 0.05, 0.01},
      {"quest-sparse", 0.05, 0.002},
      {"chess-like", 0.05, 0.85},
      {"chess-like", 0.05, 0.70},
      {"short-dense", 0.05, 0.05},
      {"short-dense", 0.05, 0.001},
  };
  for (const auto& c : cases) {
    const auto db = harness::scaled_dataset(c.dataset, c.scale);
    const Count minsup = harness::absolute_support(db, c.fraction);
    const auto fixed = core::mine(db, minsup, core::Algorithm::kPltConditional,
                                  fixed_plan());

    core::MineOptions adaptive;
    adaptive.plan = "adaptive";
    const auto planned =
        core::mine(db, minsup, core::Algorithm::kPltConditional, adaptive);
    testing::expect_same_itemsets(fixed.itemsets, planned.itemsets,
                                  c.dataset);

    core::MineOptions pinned = adaptive;
    pinned.plan_config = subtree_only();
    const auto ordered =
        core::mine(db, minsup, core::Algorithm::kPltConditional, pinned);
    expect_same_order(fixed.itemsets, ordered.itemsets, c.dataset);
  }
  core::set_validation_enabled(false);
}

// The planner is shared by reference across workers; results must not
// depend on the plan or the thread count.
TEST(AdaptiveDifferential, ParallelThreadCounts) {
  PlanGuard guard;
  const auto db = harness::scaled_dataset("quest-sparse", 0.05);
  const Count minsup = harness::absolute_support(db, 0.005);
  const auto reference = core::mine(
      db, minsup, core::Algorithm::kPltConditional, fixed_plan());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    parallel::ParallelOptions options;
    options.threads = threads;
    options.plan = "adaptive";
    const auto result = parallel::mine_parallel(db, minsup, options);
    testing::expect_same_itemsets(reference.itemsets, result.itemsets,
                                  "parallel adaptive");
  }
}

TEST(AdaptiveDifferential, ParallelRejectsUnknownPlan) {
  PlanGuard guard;
  parallel::ParallelOptions options;
  options.plan = "bogus";
  EXPECT_THROW(
      parallel::mine_parallel(testing::paper_table1(), 2, options),
      std::invalid_argument);
}

// The OOC walk streams subtrees through the same pooled engine; checkpoint
// records replay emissions verbatim, so the raw order must be
// plan-invariant (not just the canonical set).
TEST(AdaptiveDifferential, OutOfCoreBlobPath) {
  PlanGuard guard;
  const auto db = harness::scaled_dataset("short-dense", 0.05);
  const Count minsup = harness::absolute_support(db, 0.01);
  const auto built = core::build_from_database(db, minsup);
  const auto blob = compress::encode_plt(built.plt);
  std::vector<Item> item_of(built.view.alphabet());
  for (Rank r = 1; r <= built.view.alphabet(); ++r)
    item_of[r - 1] = built.view.item_of(r);

  compress::OocOptions fixed_ooc;
  fixed_ooc.plan = "fixed";
  core::FrequentItemsets fixed;
  ASSERT_EQ(compress::mine_from_blob(blob, item_of, minsup,
                                     core::collect_into(fixed), nullptr,
                                     fixed_ooc),
            core::MineStatus::kCompleted);

  compress::OocOptions adaptive;
  adaptive.plan = "adaptive";
  core::FrequentItemsets planned;
  ASSERT_EQ(compress::mine_from_blob(blob, item_of, minsup,
                                     core::collect_into(planned), nullptr,
                                     adaptive),
            core::MineStatus::kCompleted);
  expect_same_order(fixed, planned, "ooc raw order");

  compress::OocOptions bogus;
  bogus.plan = "bogus";
  core::FrequentItemsets sinkhole;
  EXPECT_THROW(compress::mine_from_blob(blob, item_of, minsup,
                                        core::collect_into(sinkhole),
                                        nullptr, bogus),
               std::invalid_argument);
}

}  // namespace
}  // namespace plt
