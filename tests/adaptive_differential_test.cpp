// Differential suite for the adaptive execution planner: on the paper's
// Table 1 and scaled-down versions of both sweep generators, the adaptive
// plan must produce exactly what the fixed plan produces — canonically
// always, and in raw emission order whenever the root strategy is pinned
// (DESIGN.md S25 proves per-subtree strategies are emission-order
// invariant, which is what keeps OOC checkpoint logs exact across plans).
// Runs with structural validation on, and under tsan via the threaded
// label (plans are shared immutably across parallel workers, and
// concurrent mines each keep their own plan).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

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

TEST(AdaptiveDifferential, Table1EverySupport) {
  const auto db = testing::paper_table1();
  for (Count minsup = 1; minsup <= 6; ++minsup) {
    const auto fixed = core::mine(db, minsup, core::Algorithm::kPltConditional);

    core::MineOptions adaptive;
    adaptive.plan = core::PlanMode::kAdaptive;
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
    const auto fixed = core::mine(db, minsup, core::Algorithm::kPltConditional);

    core::MineOptions adaptive;
    adaptive.plan = core::PlanMode::kAdaptive;
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
  const auto db = harness::scaled_dataset("quest-sparse", 0.05);
  const Count minsup = harness::absolute_support(db, 0.005);
  const auto reference =
      core::mine(db, minsup, core::Algorithm::kPltConditional);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    parallel::ParallelOptions options;
    options.threads = threads;
    options.plan = core::PlanMode::kAdaptive;
    const auto result = parallel::mine_parallel(db, minsup, options);
    testing::expect_same_itemsets(reference.itemsets, result.itemsets,
                                  "parallel adaptive");
  }
}

// A plan belongs to its call: two threads mining at once, one adaptive
// and one fixed, each get the sequential truth in raw emission order and
// report their own plan. The plan is read from MineResult, not the trace,
// so this also runs with the obs layer compiled out; under tsan it also
// shows the two mines share no unsynchronized state.
TEST(AdaptiveDifferential, ConcurrentMinesKeepTheirOwnPlan) {
  const auto db = harness::scaled_dataset("quest-sparse", 0.05);
  const Count minsup = harness::absolute_support(db, 0.005);
  const auto truth = core::mine(db, minsup, core::Algorithm::kPltConditional);
  core::MineOptions adaptive;
  adaptive.plan = core::PlanMode::kAdaptive;
  adaptive.plan_config = subtree_only();
  const auto run = [&](const core::MineOptions& options) {
    const bool planned = options.plan == core::PlanMode::kAdaptive;
    for (int round = 0; round < 4; ++round) {
      const auto result =
          core::mine(db, minsup, core::Algorithm::kPltConditional, options);
      expect_same_order(truth.itemsets, result.itemsets,
                        planned ? "concurrent adaptive" : "concurrent fixed");
      const core::ProjectionStats& p = result.projection;
      const std::uint64_t decisions = p.plan_pooled + p.plan_single_path +
                                      p.plan_eclat + p.plan_narrow +
                                      p.plan_wide;
      if (planned) {
        EXPECT_EQ(result.plan_root, "conditional");
        EXPECT_GT(decisions, 0u);
      } else {
        EXPECT_EQ(result.plan_root, "");
        EXPECT_EQ(decisions, 0u);
      }
    }
  };
  std::thread planned_thread(run, std::cref(adaptive));
  std::thread fixed_thread(run, core::MineOptions{});
  planned_thread.join();
  fixed_thread.join();
}

// The OOC walk streams subtrees through the same pooled engine; checkpoint
// records replay emissions verbatim, so the raw order must be
// plan-invariant (not just the canonical set).
TEST(AdaptiveDifferential, OutOfCoreBlobPath) {
  const auto db = harness::scaled_dataset("short-dense", 0.05);
  const Count minsup = harness::absolute_support(db, 0.01);
  const auto built = core::build_from_database(db, minsup);
  const auto blob = compress::encode_plt(built.plt);
  std::vector<Item> item_of(built.view.alphabet());
  for (Rank r = 1; r <= built.view.alphabet(); ++r)
    item_of[r - 1] = built.view.item_of(r);

  core::FrequentItemsets fixed;
  ASSERT_EQ(compress::mine_from_blob(blob, item_of, minsup,
                                     core::collect_into(fixed)),
            core::MineStatus::kCompleted);

  compress::OocOptions adaptive;
  adaptive.plan = core::PlanMode::kAdaptive;
  core::FrequentItemsets planned;
  ASSERT_EQ(compress::mine_from_blob(blob, item_of, minsup,
                                     core::collect_into(planned), nullptr,
                                     adaptive),
            core::MineStatus::kCompleted);
  expect_same_order(fixed, planned, "ooc raw order");
}

}  // namespace
}  // namespace plt
