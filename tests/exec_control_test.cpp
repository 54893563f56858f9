// Cooperative execution control: cancellation, deadlines and memory
// budgets must unwind every algorithm path cleanly — sequential facade,
// work-stealing parallel miner, and the out-of-core blob miner —
// returning a valid prefix of the results and the right status.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "compress/codec.hpp"
#include "compress/ooc_miner.hpp"
#include "core/builder.hpp"
#include "core/miner.hpp"
#include "datagen/quest.hpp"
#include "parallel/partition_miner.hpp"
#include "test_support.hpp"

namespace plt::core {
namespace {

using namespace std::chrono_literals;

tdb::Database workload(std::uint64_t seed = 11) {
  datagen::QuestConfig cfg;
  cfg.transactions = 600;
  cfg.items = 60;
  cfg.seed = seed;
  return datagen::generate_quest(cfg);
}

TEST(MiningControl, FreshControlNeverTrips) {
  MiningControl control;
  EXPECT_FALSE(control.limited());
  EXPECT_FALSE(control.should_stop(1u << 30));
  EXPECT_EQ(control.status(), MineStatus::kCompleted);
  EXPECT_EQ(control.checks(), 1u);
}

TEST(MiningControl, CancellationLatches) {
  MiningControl control;
  control.request_cancel();
  EXPECT_TRUE(control.cancel_requested());
  EXPECT_TRUE(control.should_stop());
  EXPECT_EQ(control.status(), MineStatus::kCancelled);
  // Latching is sticky: a later budget violation cannot overwrite the
  // first cause.
  control.set_memory_budget(1);
  EXPECT_TRUE(control.should_stop(1u << 20));
  EXPECT_EQ(control.status(), MineStatus::kCancelled);
}

TEST(MiningControl, DeadlineTrips) {
  const MiningControl control = MiningControl::with_deadline(0ns);
  EXPECT_TRUE(control.limited());
  EXPECT_TRUE(control.should_stop());
  EXPECT_EQ(control.status(), MineStatus::kDeadlineExceeded);
}

TEST(MiningControl, BudgetTripsOnlyWhenReported) {
  MiningControl control;
  control.set_memory_budget(1000);
  EXPECT_FALSE(control.should_stop(0));    // unknown usage never trips
  EXPECT_FALSE(control.should_stop(999));
  EXPECT_TRUE(control.should_stop(1001));
  EXPECT_EQ(control.status(), MineStatus::kBudgetExceeded);
}

TEST(MiningControl, StatusStrings) {
  EXPECT_STREQ(to_string(MineStatus::kCompleted), "completed");
  EXPECT_STREQ(to_string(MineStatus::kCancelled), "cancelled");
  EXPECT_STREQ(to_string(MineStatus::kDeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(to_string(MineStatus::kBudgetExceeded), "budget-exceeded");
}

TEST(ExecControl, EveryAlgorithmHonoursCancellation) {
  const auto db = workload();
  for (const Algorithm algorithm : all_algorithms()) {
    MiningControl control;
    control.request_cancel();
    MineOptions options;
    options.control = &control;
    const auto result = mine(db, 3, algorithm, options);
    EXPECT_EQ(result.status, MineStatus::kCancelled)
        << algorithm_name(algorithm);
    EXPECT_GT(result.resilience.control_checks, 0u)
        << algorithm_name(algorithm);
    // Whatever was emitted before the stop is a valid prefix: real
    // itemsets with real supports.
    for (std::size_t i = 0; i < result.itemsets.size(); ++i)
      ASSERT_GE(result.itemsets.support(i), 3u) << algorithm_name(algorithm);
  }
}

TEST(ExecControl, CompletedRunReportsCompletedWithControlAttached) {
  const auto db = workload();
  MiningControl control;
  control.set_memory_budget(1u << 30);  // generous: must not trip
  MineOptions options;
  options.control = &control;
  const auto result = mine(db, 3, Algorithm::kPltConditional, options);
  EXPECT_EQ(result.status, MineStatus::kCompleted);
  EXPECT_GT(result.resilience.control_checks, 0u);
  const auto reference = mine(db, 3, Algorithm::kPltConditional);
  plt::testing::expect_same_itemsets(result.itemsets, reference.itemsets,
                                     "controlled-completed");
}

TEST(ExecControl, TinyBudgetDegradesWithHint) {
  const auto db = workload();
  MiningControl control;
  control.set_memory_budget(16);  // smaller than any real structure
  MineOptions options;
  options.control = &control;
  const auto result = mine(db, 3, Algorithm::kPltConditional, options);
  EXPECT_EQ(result.status, MineStatus::kBudgetExceeded);
  EXPECT_NE(result.degradation_hint.find("min_support"),
            std::string::npos);
}

TEST(ExecControl, ExpiredDeadlineStopsSequentialMine) {
  const auto db = workload();
  const MiningControl control = MiningControl::with_deadline(0ns);
  MineOptions options;
  options.control = &control;
  const auto result = mine(db, 3, Algorithm::kPltConditional, options);
  EXPECT_EQ(result.status, MineStatus::kDeadlineExceeded);
}

TEST(ExecControl, ParallelMinerStopsOnCancelledControl) {
  const auto db = workload();
  MiningControl control;
  control.request_cancel();
  parallel::ParallelOptions options;
  options.threads = 4;
  options.control = &control;
  const auto result = parallel::mine_parallel(db, 3, options);
  EXPECT_EQ(result.status, MineStatus::kCancelled);
  for (std::size_t i = 0; i < result.itemsets.size(); ++i)
    ASSERT_GE(result.itemsets.support(i), 3u);
}

TEST(ExecControl, ParallelMinerCancelledFromAnotherThread) {
  // Cross-thread cancellation: the canceller races the workers on the
  // shared atomic state (TSan covers this suite). Either outcome — finished
  // before the cancel landed, or stopped early — must be internally
  // consistent.
  const auto db = workload(13);
  MiningControl control;
  parallel::ParallelOptions options;
  options.threads = 4;
  options.control = &control;
  std::thread canceller([&control] {
    std::this_thread::sleep_for(1ms);
    control.request_cancel();
  });
  const auto result = parallel::mine_parallel(db, 2, options);
  canceller.join();
  EXPECT_TRUE(result.status == MineStatus::kCompleted ||
              result.status == MineStatus::kCancelled);
  for (std::size_t i = 0; i < result.itemsets.size(); ++i)
    ASSERT_GE(result.itemsets.support(i), 2u);
}

TEST(ExecControl, OocMinerStopsOnCancelledControl) {
  const auto db = workload();
  const auto built = core::build_from_database(db, 3);
  const auto blob = compress::encode_plt(built.plt);
  std::vector<Item> item_of(built.view.alphabet());
  for (Rank r = 1; r <= built.view.alphabet(); ++r)
    item_of[r - 1] = built.view.item_of(r);

  MiningControl control;
  control.request_cancel();
  compress::OocOptions options;
  options.control = &control;
  compress::OocStats stats;
  FrequentItemsets mined;
  const MineStatus status = compress::mine_from_blob(
      blob, item_of, 3, collect_into(mined), &stats, options);
  EXPECT_EQ(status, MineStatus::kCancelled);
  EXPECT_EQ(mined.size(), 0u);  // checked before the first rank
  EXPECT_GT(stats.resilience.control_checks, 0u);
}

// A workload whose exhaustive mine takes far longer than 50ms: dense rows
// at low support explode combinatorially, so only a working deadline can
// bring these runs home quickly.
tdb::Database heavy_workload() {
  tdb::Database db;
  for (int t = 0; t < 400; ++t) {
    std::vector<Item> row;
    for (Item i = 1; i <= 22; ++i)
      if (((t + i) % 7) != 0) row.push_back(i);
    db.add(row);
  }
  return db;
}

TEST(ExecControl, FiftyMsDeadlineBoundsSequentialMine) {
  const auto db = heavy_workload();
  const MiningControl control = MiningControl::with_deadline(50ms);
  MineOptions options;
  options.control = &control;
  const auto start = std::chrono::steady_clock::now();
  const auto result = mine(db, 2, Algorithm::kPltConditional, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.status, MineStatus::kDeadlineExceeded);
  EXPECT_LT(elapsed, 10s);  // generous: the point is "bounded", not "fast"
}

TEST(ExecControl, FiftyMsDeadlineBoundsParallelMine) {
  const auto db = heavy_workload();
  const MiningControl control = MiningControl::with_deadline(50ms);
  parallel::ParallelOptions options;
  options.threads = 4;
  options.control = &control;
  const auto start = std::chrono::steady_clock::now();
  const auto result = parallel::mine_parallel(db, 2, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.status, MineStatus::kDeadlineExceeded);
  EXPECT_LT(elapsed, 10s);
}

TEST(ExecControl, FiftyMsDeadlineBoundsOocMine) {
  const auto db = heavy_workload();
  const auto built = core::build_from_database(db, 2);
  const auto blob = compress::encode_plt(built.plt);
  std::vector<Item> item_of(built.view.alphabet());
  for (Rank r = 1; r <= built.view.alphabet(); ++r)
    item_of[r - 1] = built.view.item_of(r);

  const MiningControl control = MiningControl::with_deadline(50ms);
  compress::OocOptions options;
  options.control = &control;
  FrequentItemsets mined;
  const auto start = std::chrono::steady_clock::now();
  const MineStatus status = compress::mine_from_blob(
      blob, item_of, 2, collect_into(mined), nullptr, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(status, MineStatus::kDeadlineExceeded);
  EXPECT_LT(elapsed, 10s);
}

}  // namespace
}  // namespace plt::core
