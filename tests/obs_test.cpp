// Observability layer (S23): the golden-trace suite plus the invariants the
// tracing design promises — strict span nesting, monotone counters, engine
// counters equal to ProjectionStats, a merged tree that is byte-identical
// across kernel backends and thread counts, nothing recorded outside a
// session, a session that records only the threads bound to it, equal
// mining output with and without a session, and
// well-formed traces on every resilience path (cancel, deadline, budget,
// failpoint crash + checkpoint resume). Every trace read here comes from a
// TraceSession the test opens around the call.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <latch>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compress/codec.hpp"
#include "compress/ooc_miner.hpp"
#include "core/builder.hpp"
#include "core/miner.hpp"
#include "datagen/dense.hpp"
#include "datagen/quest.hpp"
#include "kernels/kernels.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "parallel/partition_miner.hpp"
#include "test_support.hpp"
#include "util/failpoint.hpp"

#ifndef PLT_OBS_GOLDEN_DIR
#define PLT_OBS_GOLDEN_DIR "."
#endif

namespace plt::obs {
namespace {

using namespace std::chrono_literals;

// Chess-like data needs high support to stay tractable: at 25% support the
// itemset lattice explodes combinatorially. kDenseMinsup is 80% of the 120
// transactions, matching the scale the parallel tests use.
constexpr Count kDenseMinsup = 96;

tdb::Database dense_workload() {
  datagen::DenseConfig cfg = datagen::chess_like(120, 5);
  return datagen::generate_dense(cfg);
}

tdb::Database sparse_workload() {
  datagen::QuestConfig cfg;
  cfg.transactions = 250;
  cfg.items = 40;
  cfg.seed = 9;
  return datagen::generate_quest(cfg);
}

std::string masked_json(const TraceNode& root) {
  TraceExportOptions options;
  options.mask_durations = true;
  return to_json(root, options);
}

// Compares against tests/golden/<name>; PLT_UPDATE_GOLDEN=1 rewrites the
// file instead (run the test binary once with it set after an intentional
// trace-shape change, then commit the diff).
void expect_matches_golden(const std::string& actual, const char* name) {
  const std::string path = std::string(PLT_OBS_GOLDEN_DIR) + "/" + name;
  if (std::getenv("PLT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << actual;
    ASSERT_TRUE(out) << "cannot write golden " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path
                  << " — regenerate with PLT_UPDATE_GOLDEN=1";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "trace shape drifted from " << path
      << " (PLT_UPDATE_GOLDEN=1 rewrites it if the change is intended)";
}

// The span tree of one core::mine call, recorded by a session around it.
std::shared_ptr<const TraceNode> traced_mine(
    const tdb::Database& db, Count min_support, core::Algorithm algorithm,
    core::MineResult* result = nullptr) {
  TraceSession session;
  core::MineResult mined = core::mine(db, min_support, algorithm);
  if (result != nullptr) *result = std::move(mined);
  return session.finish();
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if !PLT_OBS_ENABLED
    GTEST_SKIP() << "observability layer compiled out (-DPLT_OBS=OFF)";
#endif
    FailpointRegistry::instance().disarm_all();
  }
  void TearDown() override {
    FailpointRegistry::instance().disarm_all();
    kernels::set_backend(backend_before_);
  }

  /// Backend-invariance tests run the scalar reference, then
  /// kernels::best_supported(); TearDown restores the process backend.
  static constexpr kernels::Backend kScalar = kernels::Backend::kScalar;
  const kernels::Backend backend_before_ = kernels::active().backend;
};

TEST_F(ObsTest, SpanTreeAggregationAndQueries) {
  TraceSession session;
  {
    PLT_SPAN("outer");
    PLT_TRACE_COUNT("ticks", 2);
    {
      PLT_SPAN("inner");
      PLT_TRACE_COUNT("ticks", 3);
    }
    {
      PLT_SPAN("inner");
    }
  }
  const auto root = session.finish();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "trace");

  const TraceNode* outer = root->child("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(outer->counter("ticks"), 2u);

  const TraceNode* inner = root->descendant("outer/inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2u);
  EXPECT_EQ(inner->counter("ticks"), 3u);

  EXPECT_EQ(root->counter_total("ticks"), 5u);
  EXPECT_EQ(root->span_total(), 1u + 2u);  // outer + 2x inner; synthetic
                                           // root carries count 0
  EXPECT_EQ(root->child("absent"), nullptr);
  EXPECT_EQ(root->descendant("outer/absent"), nullptr);
  EXPECT_EQ(root->counter("absent"), 0u);
}

TEST_F(ObsTest, ExportsMaskedAndUnmasked) {
  TraceSession session;
  {
    PLT_SPAN("phase");
    PLT_TRACE_COUNT("work", 7);
  }
  const auto root = session.finish();
  ASSERT_NE(root, nullptr);

  const std::string masked = masked_json(*root);
  EXPECT_NE(masked.find("\"masked\": true"), std::string::npos);
  EXPECT_NE(masked.find("\"phase\""), std::string::npos);
  EXPECT_NE(masked.find("\"work\": 7"), std::string::npos);
  EXPECT_EQ(masked.find("\"ns\""), std::string::npos);
  EXPECT_EQ(masked.find("\"backend\""), std::string::npos);

  TraceExportOptions options;
  options.backend = "scalar";
  const std::string full = to_json(*root, options);
  EXPECT_NE(full.find("\"masked\": false"), std::string::npos);
  EXPECT_NE(full.find("\"ns\""), std::string::npos);
  EXPECT_NE(full.find("\"backend\": \"scalar\""), std::string::npos);

  const std::string folded = to_folded(*root, /*mask_durations=*/true);
  EXPECT_NE(folded.find("trace;phase 1"), std::string::npos);
}

TEST_F(ObsTest, HealthReportsBalancedNesting) {
  TraceSession session;
  {
    PLT_SPAN("a");
    {
      PLT_SPAN("b");
    }
  }
  const TraceHealth health = session.health();
  EXPECT_EQ(health.threads, 1u);
  EXPECT_EQ(health.unbalanced_exits, 0u);
  EXPECT_EQ(health.open_spans, 0u);
  session.finish();
}

// The tentpole pin: mining the paper's Table 1 produces this exact span
// tree — names, nesting, span counts, counters — on the scalar AND the SIMD
// backends. Durations are masked; everything else is byte-compared.
TEST_F(ObsTest, GoldenTraceTable1Conditional) {
  const auto db = testing::paper_table1();
  for (const kernels::Backend backend : {kScalar, kernels::best_supported()}) {
    SCOPED_TRACE(kernels::backend_name(backend));
    kernels::set_backend(backend);
    const auto trace = traced_mine(db, 2, core::Algorithm::kPltConditional);
    ASSERT_NE(trace, nullptr);
    expect_matches_golden(masked_json(*trace),
                          "trace_table1_conditional.json");
  }
}

TEST_F(ObsTest, GoldenTraceTable1TopDown) {
  const auto db = testing::paper_table1();
  for (const kernels::Backend backend : {kScalar, kernels::best_supported()}) {
    SCOPED_TRACE(kernels::backend_name(backend));
    kernels::set_backend(backend);
    const auto trace =
        traced_mine(db, 2, core::Algorithm::kPltTopDownCanonical);
    ASSERT_NE(trace, nullptr);
    expect_matches_golden(masked_json(*trace), "trace_table1_topdown.json");
  }
}

// Some baselines (e.g. the partition miner) re-enter core::mine() per
// chunk, on the calling thread: their traces legitimately hold several
// "mine" spans and accumulate itemsets-total across the inner runs, so the
// checks are lower bounds; the golden tests above pin the exact
// single-pass shape.
TEST_F(ObsTest, EveryAlgorithmProducesARootedTrace) {
  const auto db = testing::paper_table1();
  for (const core::Algorithm algorithm : core::all_algorithms()) {
    SCOPED_TRACE(core::algorithm_name(algorithm));
    core::MineResult result;
    const auto trace = traced_mine(db, 2, algorithm, &result);
    ASSERT_NE(trace, nullptr);
    const TraceNode* mine = trace->child("mine");
    ASSERT_NE(mine, nullptr);
    EXPECT_GE(mine->count, 1u);
    const TraceNode* algo = mine->child(core::algorithm_name(algorithm));
    ASSERT_NE(algo, nullptr);
    EXPECT_GE(algo->count, 1u);
    EXPECT_GE(trace->counter_total("status.completed"), 1u);
    EXPECT_GE(trace->counter_total("itemsets-total"), result.itemsets.size());
  }
}

// Counters never reset within a session: mining twice under one session
// yields exactly twice every span count and counter of a single mine.
TEST_F(ObsTest, CountersAreMonotoneAcrossMines) {
  const auto db = dense_workload();

  const auto once =
      traced_mine(db, kDenseMinsup, core::Algorithm::kPltConditional);
  ASSERT_NE(once, nullptr);

  TraceSession session;
  (void)core::mine(db, kDenseMinsup, core::Algorithm::kPltConditional);
  (void)core::mine(db, kDenseMinsup, core::Algorithm::kPltConditional);
  const auto twice = session.finish();
  ASSERT_NE(twice, nullptr);

  const TraceNode* mine1 = once->child("mine");
  const TraceNode* mine2 = twice->child("mine");
  ASSERT_NE(mine1, nullptr);
  ASSERT_NE(mine2, nullptr);
  EXPECT_EQ(mine2->count, 2 * mine1->count);
  for (const char* counter :
       {"ranks-processed", "entries-projected", "itemsets-emitted",
        "itemsets-total", "kernel.intersect_sorted.calls",
        "kernel.intersect_sorted.bytes"}) {
    SCOPED_TRACE(counter);
    EXPECT_EQ(twice->counter_total(counter),
              2 * once->counter_total(counter));
  }
}

// ProjectionStats is the engine's only counter source: mine_rank adds
// each rank's share to the trace once, so every engine counter's tree
// total equals its ProjectionStats field, and itemsets-emitted equals the
// itemsets mined. mine_parallel's 4-thread run merges its workers' stats,
// so a field merge() forgot would show here.
void expect_engine_counters(const TraceNode& trace,
                            const core::MineResult& result) {
  const core::ProjectionStats& p = result.projection;
  EXPECT_GT(p.ranks_processed, 0u);
  EXPECT_EQ(trace.counter_total("ranks-processed"), p.ranks_processed);
  EXPECT_EQ(trace.counter_total("entries-projected"), p.entries_projected);
  EXPECT_EQ(trace.counter_total("plan.subtree.pooled"), p.projections_built);
  EXPECT_EQ(trace.counter_total("plan.subtree.eclat"), p.plan_eclat);
  EXPECT_EQ(trace.counter_total("itemsets-emitted"), result.itemsets.size());
}

TEST_F(ObsTest, EngineCountersComeFromProjectionStats) {
  const struct {
    const char* label;
    tdb::Database db;
    Count minsup;
  } workloads[] = {
      {"dense", dense_workload(), kDenseMinsup},
      {"sparse", sparse_workload(), 3},
  };
  for (const auto& w : workloads) {
    SCOPED_TRACE(w.label);
    core::MineResult mined;
    const auto trace =
        traced_mine(w.db, w.minsup, core::Algorithm::kPltConditional, &mined);
    ASSERT_NE(trace, nullptr);
    expect_engine_counters(*trace, mined);
    EXPECT_GT(mined.projection.projections_built, 0u);
    EXPECT_GT(mined.projection.plan_eclat, 0u);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(threads);
      parallel::ParallelOptions options;
      options.threads = threads;
      TraceSession session;
      const core::MineResult result =
          parallel::mine_parallel(w.db, w.minsup, options);
      const auto parallel_trace = session.finish();
      ASSERT_NE(parallel_trace, nullptr);
      expect_engine_counters(*parallel_trace, result);
    }
  }

  // mine_from_blob hands its itemsets to a sink: the trace counts exactly
  // what the sink received.
  const auto built = core::build_from_database(sparse_workload(), 3);
  const auto blob = compress::encode_plt(built.plt);
  std::vector<Item> item_of(built.view.alphabet());
  for (Rank r = 1; r <= built.view.alphabet(); ++r)
    item_of[r - 1] = built.view.item_of(r);
  std::uint64_t received = 0;
  const auto sink = [&received](std::span<const Item>, Count) { ++received; };
  TraceSession session;
  EXPECT_EQ(compress::mine_from_blob(blob, item_of, 3, sink),
            core::MineStatus::kCompleted);
  const auto trace = session.finish();
  ASSERT_NE(trace, nullptr);
  EXPECT_GT(received, 0u);
  EXPECT_EQ(trace->counter_total("itemsets-emitted"), received);
}

// Without a session nothing records: no mining path opens one of its own.
TEST_F(ObsTest, NoSessionRecordsNothing) {
  EXPECT_EQ(current_thread_trace(), nullptr);
  (void)core::mine(testing::paper_table1(), 2,
                   core::Algorithm::kPltConditional);
  EXPECT_EQ(current_thread_trace(), nullptr);
}

// ---- thread isolation: a session records only the threads bound to it --

// Two threads each mine inside a session of their own, both sessions open
// across both mines: each masked trace equals the one its thread records
// alone. One of them runs mine_parallel, whose crew joins its session.
TEST_F(ObsTest, ConcurrentSessionsRecordOnlyTheirOwnThreads) {
  const auto dense = dense_workload();
  const auto sparse = sparse_workload();
  parallel::ParallelOptions options;
  options.threads = 2;
  const auto mine_dense = [&] {
    (void)core::mine(dense, kDenseMinsup, core::Algorithm::kPltConditional);
  };
  const auto mine_sparse = [&] {
    (void)parallel::mine_parallel(sparse, 3, options);
  };
  const auto alone = [](const auto& work) {
    TraceSession session;
    work();
    return masked_json(*session.finish());
  };
  const std::string dense_alone = alone(mine_dense);
  const std::string sparse_alone = alone(mine_sparse);

  std::latch opened(2);
  std::latch mined(2);
  const auto traced = [&](const auto& work, std::string& out) {
    TraceSession session;
    opened.arrive_and_wait();
    work();
    mined.arrive_and_wait();
    out = masked_json(*session.finish());
  };
  std::string dense_traced, sparse_traced;
  std::thread a([&] { traced(mine_dense, dense_traced); });
  std::thread b([&] { traced(mine_sparse, sparse_traced); });
  a.join();
  b.join();
  EXPECT_EQ(dense_traced, dense_alone);
  EXPECT_EQ(sparse_traced, sparse_alone);
}

// A mine on a thread bound to no session adds nothing to another thread's
// open session: the session holds exactly the one mine its thread ran.
TEST_F(ObsTest, UnboundThreadAddsNothingToAnOpenSession) {
  const auto db = testing::paper_table1();
  const auto dense = dense_workload();
  const std::string alone =
      masked_json(*traced_mine(db, 2, core::Algorithm::kPltConditional));

  TraceSession session;
  (void)core::mine(db, 2, core::Algorithm::kPltConditional);
  std::thread([&] {
    EXPECT_EQ(current_thread_trace(), nullptr);
    (void)core::mine(dense, kDenseMinsup, core::Algorithm::kPltConditional);
  }).join();
  const auto tree = session.finish();
  const TraceNode* mine = tree->child("mine");
  ASSERT_NE(mine, nullptr);
  EXPECT_EQ(mine->count, 1u);
  EXPECT_EQ(masked_json(*tree), alone);
}

// The merged tree is identical for 1, 4 and 8 worker threads: every rank is
// mined exactly once whichever worker claims it, merge sums commute, and
// scheduling artifacts (steals) are deliberately not traced.
TEST_F(ObsTest, ParallelTraceIsThreadCountInvariant) {
  const auto db = sparse_workload();
  std::vector<std::string> exports;
  core::FrequentItemsets reference;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    parallel::ParallelOptions options;
    options.threads = threads;
    TraceSession session;
    auto result = parallel::mine_parallel(db, 3, options);
    const auto trace = session.finish();
    ASSERT_NE(trace, nullptr);
    // Worker spans land top-level in the merged tree (workers have no
    // cross-thread parent); exactly one "mine-rank" span ran per rank.
    const TraceNode* ranks = trace->child("mine-rank");
    ASSERT_NE(ranks, nullptr);
    const TraceNode* partitions =
        trace->descendant("mine-parallel/build-partitions");
    ASSERT_NE(partitions, nullptr);
    EXPECT_EQ(ranks->count, partitions->counter("partitions"));
    exports.push_back(masked_json(*trace));
    if (threads == 1)
      reference = result.itemsets;
    else
      testing::expect_same_itemsets(reference, result.itemsets, "threads");
  }
  EXPECT_EQ(exports[0], exports[1]);
  EXPECT_EQ(exports[0], exports[2]);
}

// Tracing must be a pure observer: mining inside a session cannot change
// what is mined or the order it is emitted in, on either sweep generator
// family.
TEST_F(ObsTest, TracingDoesNotChangeMiningOutput) {
  const struct {
    const char* label;
    tdb::Database db;
    Count minsup;
  } generators[] = {
      {"dense", dense_workload(), kDenseMinsup},
      {"sparse", sparse_workload(), 3},
  };
  for (const auto& g : generators) {
    for (const core::Algorithm algorithm :
         {core::Algorithm::kPltConditional,
          core::Algorithm::kPltTopDownSweep}) {
      SCOPED_TRACE(std::string(g.label) + "/" +
                   core::algorithm_name(algorithm));
      const auto off = core::mine(g.db, g.minsup, algorithm);
      core::MineResult on;
      const auto trace = traced_mine(g.db, g.minsup, algorithm, &on);
      ASSERT_NE(trace, nullptr);
      EXPECT_NE(trace->child("mine"), nullptr);
      // Byte-identical, not just set-equal: same itemsets, same order.
      EXPECT_TRUE(
          core::FrequentItemsets::equal(off.itemsets, on.itemsets));
    }
  }
}

TEST_F(ObsTest, KernelCountersAreBackendInvariant) {
  const auto db = dense_workload();
  std::uint64_t scalar_calls = 0, scalar_bytes = 0;
  for (const kernels::Backend backend : {kScalar, kernels::best_supported()}) {
    SCOPED_TRACE(kernels::backend_name(backend));
    kernels::set_backend(backend);
    const auto trace =
        traced_mine(db, kDenseMinsup, core::Algorithm::kPltConditional);
    ASSERT_NE(trace, nullptr);
    const std::uint64_t calls =
        trace->counter_total("kernel.intersect_sorted.calls");
    const std::uint64_t bytes =
        trace->counter_total("kernel.intersect_sorted.bytes");
    EXPECT_GT(calls, 0u);
    EXPECT_GT(bytes, 0u);
    if (backend == kScalar) {
      scalar_calls = calls;
      scalar_bytes = bytes;
    } else {
      EXPECT_EQ(calls, scalar_calls);
      EXPECT_EQ(bytes, scalar_bytes);
    }
  }
}

// ---- resilience paths: traces stay well-formed when mining stops early --

void expect_clean_stop(const core::MiningControl& control,
                       core::MineStatus expected_status,
                       const char* expected_counter) {
  const auto db = sparse_workload();
  core::MineOptions options;
  options.control = &control;
  TraceSession session;
  const auto result =
      core::mine(db, 2, core::Algorithm::kPltConditional, options);
  EXPECT_EQ(result.status, expected_status);
  const TraceHealth health = session.health();
  EXPECT_EQ(health.unbalanced_exits, 0u);
  EXPECT_EQ(health.open_spans, 0u);
  const auto root = session.finish();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->counter_total(expected_counter), 1u)
      << masked_json(*root);
}

TEST_F(ObsTest, CancelledMineTraceIsWellFormed) {
  core::MiningControl control;
  control.request_cancel();
  expect_clean_stop(control, core::MineStatus::kCancelled,
                    "status.cancelled");
}

TEST_F(ObsTest, DeadlineMineTraceIsWellFormed) {
  const core::MiningControl control = core::MiningControl::with_deadline(0ns);
  expect_clean_stop(control, core::MineStatus::kDeadlineExceeded,
                    "status.deadline-exceeded");
}

TEST_F(ObsTest, BudgetMineTraceIsWellFormed) {
  core::MiningControl control;
  control.set_memory_budget(1);
  expect_clean_stop(control, core::MineStatus::kBudgetExceeded,
                    "status.budget-exceeded");
}

TEST_F(ObsTest, OocCrashAndResumeTracesAreWellFormed) {
  const auto built = core::build_from_database(sparse_workload(), 3);
  const auto blob = compress::encode_plt(built.plt);
  std::vector<Item> item_of(built.view.alphabet());
  for (Rank r = 1; r <= built.view.alphabet(); ++r)
    item_of[r - 1] = built.view.item_of(r);
  const auto sink = [](std::span<const Item>, Count) {};
  const std::string path =
      (std::string(::testing::TempDir()) + "/obs_resume.pltk");

  // Crash mid-walk: the injected fault unwinds every span it was inside,
  // so the caller's session is left balanced.
  {
    FailpointRegistry::Spec spec;
    spec.mode = FailpointRegistry::Mode::kOneShot;
    spec.n = 4;
    FailpointRegistry::instance().arm("ooc.rank", spec);
    compress::OocOptions options;
    options.checkpoint_path = path;
    TraceSession session;
    EXPECT_THROW(compress::mine_from_blob(blob, item_of, 3, sink, nullptr,
                                          options),
                 InjectedFault);
    FailpointRegistry::instance().disarm("ooc.rank");
    const TraceHealth health = session.health();
    EXPECT_EQ(health.open_spans, 0u);
    EXPECT_EQ(health.unbalanced_exits, 0u);
  }

  // Resume: the trace must carry the replay span, the resumed-rank count
  // and the checkpoint spans.
  compress::OocOptions options;
  options.checkpoint_path = path;
  compress::OocStats stats;
  TraceSession session;
  const auto status =
      compress::mine_from_blob(blob, item_of, 3, sink, &stats, options);
  EXPECT_EQ(status, core::MineStatus::kCompleted);
  const auto trace = session.finish();
  ASSERT_NE(trace, nullptr);
  const TraceNode* ooc = trace->child("ooc-mine");
  ASSERT_NE(ooc, nullptr);
  ASSERT_NE(ooc->child("ooc-resume"), nullptr);
  EXPECT_EQ(ooc->child("ooc-resume")->counter("resumed-ranks"),
            stats.resumed_ranks);
  EXPECT_GT(trace->counter_total("ranks"), 0u);
  const TraceNode* checkpoint = ooc->child("checkpoint");
  ASSERT_NE(checkpoint, nullptr);
  EXPECT_EQ(checkpoint->count, trace->counter_total("ranks"));
  std::remove(path.c_str());
}

// ---- latency histogram ---------------------------------------------------
// Independent of trace sessions: histograms live in stats structs
// (ParallelResult, ShardReport, bench JSON), never in golden traces, so
// they must work with no session open too.

TEST(LatencyHistogramTest, BucketBoundariesArePowersOfTwo) {
  EXPECT_EQ(LatencyHistogram::bucket_index(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(1), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(2), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_index(3), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_index(4), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_index((std::uint64_t{1} << 20) - 1),
            19u);
  EXPECT_EQ(LatencyHistogram::bucket_index(std::uint64_t{1} << 20), 20u);
  EXPECT_EQ(LatencyHistogram::bucket_index(
                std::numeric_limits<std::uint64_t>::max()),
            63u);
  EXPECT_EQ(LatencyHistogram::bucket_floor_ns(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_floor_ns(1), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_floor_ns(20), std::uint64_t{1} << 20);
}

TEST(LatencyHistogramTest, RecordsCountSumAndPercentileBounds) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile_ns(0.5), 0u);  // empty
  h.record(1);
  h.record(10);
  h.record(100);
  h.record(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum_ns(), 1111u);
  EXPECT_EQ(h.bucket(LatencyHistogram::bucket_index(10)), 1u);
  // Quantiles are bucket upper bounds, not exact order statistics.
  EXPECT_EQ(h.percentile_ns(0.0), 1u);     // bucket [0,2)
  EXPECT_EQ(h.percentile_ns(1.0), 1023u);  // bucket [512,1024)
  EXPECT_GE(h.percentile_ns(0.5), 10u);
  EXPECT_LE(h.percentile_ns(0.5), 15u);  // bucket [8,16)
  EXPECT_EQ(h.bucket(LatencyHistogram::kBuckets), 0u);  // out of range
}

TEST(LatencyHistogramTest, PercentileHonorsDocumentedErrorBound) {
  // percentile(q) is the SLO accessor plt-serve and bench_serve report:
  // the inclusive upper bound 2^(i+1)-1 of the log2 bucket holding the
  // q-th order statistic, so result/2 < v <= result and the reported
  // quantile never underestimates the true one.
  LatencyHistogram empty;
  EXPECT_EQ(empty.percentile(0.5), 0u);

  std::vector<std::uint64_t> samples;
  LatencyHistogram h;
  for (std::uint64_t v : {1u, 3u, 9u, 27u, 81u, 243u, 729u, 2187u, 6561u,
                          19683u}) {
    samples.push_back(v);
    h.record(v);
  }
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    // The true q-th order statistic with the same index convention the
    // histogram uses (ceil(q * count), 1-based, clamped).
    auto index = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    index = std::min(std::max<std::size_t>(index, 1), samples.size()) - 1;
    const std::uint64_t truth = samples[index];
    const std::uint64_t reported = h.percentile(q);
    EXPECT_GE(reported, truth) << "q=" << q;          // never underestimates
    EXPECT_LT(reported / 2, truth) << "q=" << q;      // within 2x
    EXPECT_EQ(reported, h.percentile_ns(q)) << "q=" << q;  // same accessor
  }

  // Bucket 0 is exact up to the 1ns resolution: only 0 and 1 land there.
  LatencyHistogram zeros;
  zeros.record(0);
  zeros.record(1);
  EXPECT_EQ(zeros.percentile(1.0), 1u);

  // Merged histograms answer percentile queries over the union.
  LatencyHistogram fast, slow;
  for (int i = 0; i < 99; ++i) fast.record(100);   // bucket [64,128)
  slow.record(1u << 20);                           // one outlier
  fast.merge(slow);
  EXPECT_LE(fast.percentile(0.50), 127u);
  EXPECT_LE(fast.percentile(0.98), 127u);
  EXPECT_GT(fast.percentile(1.0), 1u << 20);
}

TEST(LatencyHistogramTest, MergeIsOrderFree) {
  LatencyHistogram a;
  a.record(5);
  a.record(500);
  LatencyHistogram b;
  b.record(7);
  b.record(70000);

  LatencyHistogram ab = a;
  ab.merge(b);
  LatencyHistogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.count(), 4u);
  EXPECT_EQ(ab.to_json(), ba.to_json());
}

TEST(LatencyHistogramTest, RecordSecondsClampsAndScales) {
  LatencyHistogram h;
  h.record_seconds(-1.0);   // clamps to 0 ns
  h.record_seconds(1e-9);   // 1 ns: still bucket 0
  h.record_seconds(2e-9);   // 2 ns: bucket 1
  h.record_seconds(1e300);  // saturates at the top bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(LatencyHistogram::kBuckets - 1), 1u);
}

TEST(LatencyHistogramTest, JsonListsOnlyOccupiedBucketsByteStably) {
  LatencyHistogram empty;
  EXPECT_EQ(empty.to_json(), "{\"count\":0,\"sum_ns\":0,\"buckets\":[]}");

  LatencyHistogram h;
  h.record(0);
  h.record(1);
  h.record(16);
  EXPECT_EQ(h.to_json(),
            "{\"count\":3,\"sum_ns\":17,\"buckets\":["
            "{\"floor_ns\":0,\"count\":2},{\"floor_ns\":16,\"count\":1}]}");
}

TEST(LatencyHistogramTest, ParallelMinerRecordsOneLatencyPerRank) {
  LatencyHistogram latency;
  parallel::ParallelOptions options;
  options.threads = 3;
  options.rank_latency = &latency;
  const auto result =
      parallel::mine_parallel(plt::testing::paper_table1(), 2, options);
  EXPECT_EQ(result.itemsets.size(), 13u);
  // One observation per mined rank (Table 1 keeps 4 ranks at minsup 2),
  // merged deterministically from the per-worker histograms.
  EXPECT_EQ(latency.count(), 4u);
}

}  // namespace
}  // namespace plt::obs
