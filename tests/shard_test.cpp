// Shard-parallel mining across processes (S26): the coordinator must be
// provably a no-op relative to a single process. The differential suites
// fork real plt-shard workers (PLT_SHARD_BIN) over 1/2/4 shards and demand
// the merged emission stream byte-identical to one mine_from_blob walk —
// including after a failpoint kills every first-attempt worker mid-run and
// the relaunches resume from the rank-granular checkpoint logs, and after
// a hung worker is SIGKILLed on its MiningControl deadline. The wire
// formats (PLM2 manifest, PLTS summary) get the usual adversarial
// treatment: corruption, truncation and structurally impossible contents
// must throw, never mislead a worker.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "blob_test_support.hpp"
#include "compress/codec.hpp"
#include "compress/ooc_miner.hpp"
#include "core/builder.hpp"
#include "core/miner.hpp"
#include "datagen/dense.hpp"
#include "datagen/quest.hpp"
#include "obs/trace.hpp"
#include "shard/coordinator.hpp"
#include "shard/worker.hpp"
#include "test_support.hpp"

extern "C" char** environ;

namespace plt::shard {
namespace {

namespace fs = std::filesystem;

// The same fork/exec spawn the default launcher performs, reused by the
// custom-launcher tests that need to control the environment per attempt.
int spawn_with_env(const std::vector<std::string>& argv,
                   const std::vector<std::string>& extra_env) {
  std::vector<char*> argv_ptrs;
  for (const std::string& arg : argv)
    argv_ptrs.push_back(const_cast<char*>(arg.c_str()));
  argv_ptrs.push_back(nullptr);
  std::vector<char*> env_ptrs;
  for (char** e = environ; *e != nullptr; ++e) env_ptrs.push_back(*e);
  for (const std::string& entry : extra_env)
    env_ptrs.push_back(const_cast<char*>(entry.c_str()));
  env_ptrs.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execvpe(argv_ptrs[0], argv_ptrs.data(), env_ptrs.data());
    ::_exit(127);
  }
  return static_cast<int>(pid);
}

// A worker that never finishes: only SIGKILL (deadline or cancellation)
// can reap it.
int spawn_hanging() {
  const pid_t pid = ::fork();
  if (pid == 0)
    for (;;) ::pause();
  return static_cast<int>(pid);
}

// One emission as the sink saw it; order-sensitive comparison, so equality
// really is "same bytes in the same order".
using Emissions = std::vector<std::pair<Itemset, Count>>;

core::ItemsetSink collect_emissions(Emissions& out) {
  return [&out](std::span<const Item> items, Count support) {
    out.emplace_back(Itemset(items.begin(), items.end()), support);
  };
}

// The single-process reference: what mine_from_blob emits over the exact
// blob the coordinator wrote for this job.
Emissions single_process_reference(const std::string& dir) {
  const Manifest manifest =
      decode_manifest(compress::read_blob_file(manifest_path(dir)));
  // No frequent items: the job has zero shards and the single-process
  // reference is the empty sequence.
  if (manifest.max_rank == 0) return {};
  const auto blob = compress::read_blob_file(blob_path(dir));
  Emissions out;
  compress::mine_from_blob(blob, manifest.item_of, manifest.min_support,
                           collect_emissions(out));
  return out;
}

tdb::Database quest_db() {
  datagen::QuestConfig cfg;
  cfg.transactions = 300;
  cfg.items = 40;
  cfg.seed = 3;
  return datagen::generate_quest(cfg);
}

tdb::Database dense_db() {
  datagen::DenseConfig cfg;
  cfg.transactions = 200;
  cfg.items = 20;
  cfg.density = 0.3;
  cfg.seed = 5;
  return datagen::generate_dense(cfg);
}

class ShardTest : public ::testing::Test {
 protected:
  std::string job_dir(const char* name) {
    const std::string dir =
        (fs::path(::testing::TempDir()) / "shard" / name).string();
    fs::remove_all(dir);
    dirs_.push_back(dir);
    return dir;
  }

  void TearDown() override {
    for (const std::string& dir : dirs_) fs::remove_all(dir);
  }

  ShardOptions options(const std::string& dir, std::size_t workers) {
    ShardOptions opts;
    opts.dir = dir;
    opts.workers = workers;
    opts.worker_binary = PLT_SHARD_BIN;
    return opts;
  }

  std::vector<std::string> dirs_;
};

// ---- shard splitting ----------------------------------------------------

TEST(ShardSplit, WindowsTileTheRankRange) {
  for (const std::size_t shards : {1u, 2u, 3u, 7u}) {
    const auto specs = split_shards({}, 20, shards);
    ASSERT_EQ(specs.size(), shards);
    Rank expected_hi = 20;
    for (std::size_t k = 0; k < specs.size(); ++k) {
      EXPECT_EQ(specs[k].shard_id, k);
      EXPECT_EQ(specs[k].rank_hi, expected_hi);
      EXPECT_GE(specs[k].rank_hi, specs[k].rank_lo);
      EXPECT_GE(specs[k].rank_lo, 1u);
      expected_hi = specs[k].rank_lo - 1;
    }
    EXPECT_EQ(expected_hi, 0u);
  }
}

TEST(ShardSplit, MoreShardsThanRanksClampsToOnePerRank) {
  const auto specs = split_shards({}, 3, 10);
  ASSERT_EQ(specs.size(), 3u);
  for (const ShardSpec& spec : specs)
    EXPECT_EQ(spec.rank_lo, spec.rank_hi);
}

TEST(ShardSplit, BalancesByPartitionWeight) {
  // Every row is the full path 1..6, so every row tops out at rank 6, yet
  // each rank mines its own CD_j: rank j reads j-1 positions per row.
  const std::uint64_t n = 10;
  const std::vector<Item> row{1, 2, 3, 4, 5, 6};
  tdb::Database ranked;
  for (std::uint64_t i = 0; i < n; ++i) ranked.add(row);
  const std::vector<std::uint64_t> positions = rank_weights(ranked, 6);
  EXPECT_EQ(positions, (std::vector<std::uint64_t>{0, n, 2 * n, 3 * n, 4 * n,
                                                   5 * n}));
  // The CD positions of the heaviest window: what its worker mines.
  const auto heaviest = [&](const std::vector<ShardSpec>& specs) {
    std::uint64_t most = 0;
    for (const ShardSpec& spec : specs) {
      std::uint64_t sum = 0;
      for (Rank j = spec.rank_lo; j <= spec.rank_hi; ++j)
        sum += positions[j - 1];
      most = std::max(most, sum);
    }
    return most;
  };
  const auto by_positions = split_shards(positions, 6, 2);
  ASSERT_EQ(by_positions.size(), 2u);
  EXPECT_EQ(by_positions[0].rank_lo, 5u);
  EXPECT_EQ(by_positions[1].rank_hi, 4u);

  // Weighting each rank by the rows whose top rank it is (rows plus their
  // prefix positions) puts all of them on rank 6 and picks another
  // window, whose other side then holds more of the work.
  const std::vector<std::uint64_t> top_rank{0, 0, 0, 0, 0, n + 5 * n};
  const auto by_top = split_shards(top_rank, 6, 2);
  ASSERT_EQ(by_top.size(), 2u);
  EXPECT_EQ(by_top[0].rank_lo, 6u);
  EXPECT_EQ(by_top[1].rank_hi, 5u);
  EXPECT_EQ(heaviest(by_positions), 9 * n);
  EXPECT_EQ(heaviest(by_top), 10 * n);
}

TEST(ShardSplit, StopsBeforeARankThatOvershootsTheShare) {
  // Ranks 1..4 weigh 1, n+1, 2n+1 and 3n+1: the first window's share is
  // 3n+2. Rank 4 falls one short of it and rank 3 would overshoot it by
  // 2n, so the window closes at [4] (3n+1 against 3n+3 for [1,3]) instead
  // of taking [3,4] (5n+2 against n+2).
  const std::uint64_t n = 10;
  const std::vector<std::uint64_t> weights{0, n, 2 * n, 3 * n};
  const auto specs = split_shards(weights, 4, 2);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].rank_hi, 4u);
  EXPECT_EQ(specs[0].rank_lo, 4u);
  EXPECT_EQ(specs[1].rank_hi, 3u);
  EXPECT_EQ(specs[1].rank_lo, 1u);
}

TEST(ShardSplit, RankWeightsCountEachRanksConditionalPositions) {
  // Ranked Table 1 (A..D = 1..4) holds ABCD, ABD, BCD, CD and ABC twice.
  // CD_4's records are {1,2,3}, {1,2}, {2,3} and {3}: 8 positions.
  const auto ranked =
      core::build_ranked_view(plt::testing::paper_table1(), 2).db;
  EXPECT_EQ(rank_weights(ranked, 4),
            (std::vector<std::uint64_t>{0, 4, 7, 8}));
}

TEST(ShardSplit, RejectsImpossibleRequests) {
  EXPECT_THROW((void)split_shards({}, 10, 0), std::invalid_argument);
  EXPECT_THROW((void)split_shards({}, 0, 2), std::invalid_argument);
}

// ---- wire formats -------------------------------------------------------

TEST(ShardWire, ManifestRoundTrips) {
  Manifest manifest;
  manifest.blob_crc = 0xDEADBEEF;
  manifest.min_support = 3;
  manifest.max_rank = 5;
  manifest.item_of = {10, 20, 30, 40, 50};
  manifest.shards = split_shards({}, 5, 2);

  const auto decoded = decode_manifest(encode_manifest(manifest));
  EXPECT_EQ(decoded.blob_crc, manifest.blob_crc);
  EXPECT_EQ(decoded.min_support, manifest.min_support);
  EXPECT_EQ(decoded.max_rank, manifest.max_rank);
  EXPECT_EQ(decoded.item_of, manifest.item_of);
  ASSERT_EQ(decoded.shards.size(), manifest.shards.size());
  for (std::size_t k = 0; k < decoded.shards.size(); ++k) {
    EXPECT_EQ(decoded.shards[k].rank_lo, manifest.shards[k].rank_lo);
    EXPECT_EQ(decoded.shards[k].rank_hi, manifest.shards[k].rank_hi);
  }
}

TEST(ShardWire, ManifestRejectsCorruptionAndGarbage) {
  Manifest manifest;
  manifest.max_rank = 4;
  manifest.min_support = 2;
  manifest.item_of = {1, 2, 3, 4};
  manifest.shards = split_shards({}, 4, 2);
  auto bytes = encode_manifest(manifest);

  EXPECT_NO_THROW((void)decode_manifest(bytes));
  auto flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x20;
  EXPECT_THROW((void)decode_manifest(flipped), std::runtime_error);

  auto truncated = bytes;
  truncated.resize(truncated.size() - 5);
  EXPECT_THROW((void)decode_manifest(truncated), std::runtime_error);

  const std::vector<std::uint8_t> garbage = {'n', 'o', 'p', 'e', 0, 0, 0, 0};
  EXPECT_THROW((void)decode_manifest(garbage), std::runtime_error);
}

// The earlier "PLTM" layout (which also carried per-partition stats and a
// plan name) is refused by its magic before any field is read, even when
// its CRC is intact and every field would parse.
TEST(ShardWire, ManifestRejectsTheEarlierPltmLayout) {
  std::vector<std::uint8_t> old = {'P', 'L', 'T', 'M'};
  compress::append_u32le(old, 0xDEADBEEF);  // blob CRC
  compress::put_varint(old, 2);             // min_support
  compress::put_varint(old, 4);             // max_rank
  compress::put_varint(old, 4);             // item_of
  for (const Item item : {1u, 2u, 3u, 4u}) compress::put_varint(old, item);
  compress::put_varint(old, 0);  // partition stats
  compress::put_varint(old, 1);  // one shard window: [1, 4]
  compress::put_varint(old, 1);
  compress::put_varint(old, 4);
  const std::string_view plan = "adaptive";
  compress::put_varint(old, plan.size());
  old.insert(old.end(), plan.begin(), plan.end());
  old.resize(old.size() + 4);
  testing::reseal_container(old);
  try {
    (void)decode_manifest(old);
    ADD_FAILURE() << "a PLTM-layout manifest decoded";
  } catch (const std::runtime_error& error) {
    // Refused by the magic, not by a later field check that happens to
    // trip on the old layout.
    EXPECT_NE(std::string(error.what()).find("bad magic"), std::string::npos)
        << error.what();
  }

  // The same job in today's layout decodes.
  Manifest manifest;
  manifest.blob_crc = 0xDEADBEEF;
  manifest.min_support = 2;
  manifest.max_rank = 4;
  manifest.item_of = {1, 2, 3, 4};
  manifest.shards = split_shards({}, 4, 1);
  EXPECT_EQ(decode_manifest(encode_manifest(manifest)).shards.size(), 1u);
}

TEST(ShardWire, ManifestRejectsWindowsThatDoNotTile) {
  // Structural validation is independent of the CRC: well-checksummed
  // nonsense (a gap above rank 1, an overlap) must still throw.
  Manifest gap;
  gap.max_rank = 6;
  gap.item_of = {1, 2, 3, 4, 5, 6};
  gap.shards = {{0, 4, 6}, {1, 2, 3}};  // rank 1 uncovered
  EXPECT_THROW((void)decode_manifest(encode_manifest(gap)),
               std::runtime_error);

  Manifest overlap;
  overlap.max_rank = 6;
  overlap.item_of = {1, 2, 3, 4, 5, 6};
  overlap.shards = {{0, 1, 6}, {1, 1, 6}};
  EXPECT_THROW((void)decode_manifest(encode_manifest(overlap)),
               std::runtime_error);
}

TEST(ShardWire, SummaryRoundTripsAndRejectsCorruption) {
  ShardSummary summary;
  summary.shard_id = 2;
  summary.rank_lo = 5;
  summary.rank_hi = 9;
  summary.itemsets = 1234;
  summary.bytes_decoded = 56789;
  summary.checkpoint_records = 5;
  summary.resumed_ranks = 2;
  summary.warmed_ranks = 11;
  summary.wall_ns = 31415926;
  summary.trace_json = "{\"name\":\"trace\"}";

  const auto bytes = encode_summary(summary);
  const auto decoded = decode_summary(bytes);
  EXPECT_EQ(decoded.shard_id, summary.shard_id);
  EXPECT_EQ(decoded.rank_lo, summary.rank_lo);
  EXPECT_EQ(decoded.rank_hi, summary.rank_hi);
  EXPECT_EQ(decoded.itemsets, summary.itemsets);
  EXPECT_EQ(decoded.bytes_decoded, summary.bytes_decoded);
  EXPECT_EQ(decoded.checkpoint_records, summary.checkpoint_records);
  EXPECT_EQ(decoded.resumed_ranks, summary.resumed_ranks);
  EXPECT_EQ(decoded.warmed_ranks, summary.warmed_ranks);
  EXPECT_EQ(decoded.wall_ns, summary.wall_ns);
  EXPECT_EQ(decoded.trace_json, summary.trace_json);

  auto flipped = bytes;
  flipped[6] ^= 0x01;
  EXPECT_THROW((void)decode_summary(flipped), std::runtime_error);
}

// ---- differential: sharded == single-process ----------------------------

TEST_F(ShardTest, Table1ByteIdenticalAtEverySupportAndWorkerCount) {
  const auto db = testing::paper_table1();
  for (Count minsup = 1; minsup <= 6; ++minsup) {
    for (const std::size_t workers : {1u, 2u, 4u}) {
      const std::string dir = job_dir(
          ("t1_s" + std::to_string(minsup) + "_w" + std::to_string(workers))
              .c_str());
      Emissions sharded;
      const auto status = mine_sharded(db, minsup,
                                       collect_emissions(sharded),
                                       options(dir, workers));
      ASSERT_EQ(status, core::MineStatus::kCompleted);
      EXPECT_EQ(sharded, single_process_reference(dir))
          << "minsup " << minsup << ", " << workers << " workers";
    }
  }
}

TEST_F(ShardTest, Table1AgreesWithInMemoryMiner) {
  const auto db = testing::paper_table1();
  for (Count minsup = 1; minsup <= 6; ++minsup) {
    const std::string dir =
        job_dir(("t1_mine_" + std::to_string(minsup)).c_str());
    core::FrequentItemsets sharded;
    ASSERT_EQ(mine_sharded(db, minsup, core::collect_into(sharded),
                           options(dir, 3)),
              core::MineStatus::kCompleted);
    testing::expect_same_itemsets(
        sharded,
        core::mine(db, minsup, core::Algorithm::kPltConditional).itemsets,
        "sharded vs core::mine");
  }
}

TEST_F(ShardTest, QuestSweepGeneratorByteIdentical) {
  const auto db = quest_db();
  for (const std::size_t workers : {1u, 2u, 4u}) {
    const std::string dir =
        job_dir(("quest_w" + std::to_string(workers)).c_str());
    Emissions sharded;
    ShardReport report;
    ASSERT_EQ(mine_sharded(db, 3, collect_emissions(sharded),
                           options(dir, workers), &report),
              core::MineStatus::kCompleted);
    EXPECT_EQ(sharded, single_process_reference(dir));
    EXPECT_EQ(report.shards, workers);
    EXPECT_EQ(report.attempts, workers);
    EXPECT_EQ(report.relaunches, 0u);
    EXPECT_EQ(report.itemsets, sharded.size());
    EXPECT_EQ(report.shard_wall.count(), workers);
    ASSERT_EQ(report.summaries.size(), workers);
    for (const ShardSummary& summary : report.summaries)
      EXPECT_EQ(summary.resumed_ranks, 0u);
  }
}

TEST_F(ShardTest, DenseSweepGeneratorByteIdentical) {
  const auto db = dense_db();
  for (const std::size_t workers : {2u, 4u}) {
    const std::string dir =
        job_dir(("dense_w" + std::to_string(workers)).c_str());
    Emissions sharded;
    ASSERT_EQ(mine_sharded(db, 20, collect_emissions(sharded),
                           options(dir, workers)),
              core::MineStatus::kCompleted);
    EXPECT_EQ(sharded, single_process_reference(dir));
  }
}

// Every worker mines through the projection engine's subtree cost model;
// the merged stream must equal the recursive reference's raw emission
// order, not only the single-process blob walk.
TEST_F(ShardTest, AdaptivePlanShardsStayByteIdentical) {
  const auto db = quest_db();
  const std::string dir = job_dir("quest_adaptive");
  Emissions sharded;
  ASSERT_EQ(mine_sharded(db, 3, collect_emissions(sharded), options(dir, 3)),
            core::MineStatus::kCompleted);
  EXPECT_EQ(sharded, single_process_reference(dir));

  auto built = core::build_from_database(db, 3);
  std::vector<Item> item_of(built.view.alphabet());
  for (Rank r = 1; r <= built.view.alphabet(); ++r)
    item_of[r - 1] = built.view.item_of(r);
  std::vector<Item> suffix;
  Emissions reference;
  core::mine_plt_conditional_recursive(built.plt, item_of, suffix, 3,
                                       collect_emissions(reference), {});
  EXPECT_EQ(sharded, reference);
}

// The coordinator records its phases in the caller's session. The workers
// run in processes of their own and record nothing, even with PLT_TRACE=1
// in their environment: no environment variable turns tracing on.
TEST_F(ShardTest, CoordinatorTracesInCallerSessionWorkersDoNot) {
  const auto db = quest_db();
  const std::string dir = job_dir("quest_traced");
  ShardOptions opts = options(dir, 2);
  opts.extra_env_first_attempt = {"PLT_TRACE=1"};
  Emissions sharded;
  ShardReport report;
  obs::TraceSession session;
  ASSERT_EQ(mine_sharded(db, 3, collect_emissions(sharded), opts, &report),
            core::MineStatus::kCompleted);
  const auto tree = session.finish();
  ASSERT_EQ(report.summaries.size(), 2u);
  for (const ShardSummary& summary : report.summaries)
    EXPECT_TRUE(summary.trace_json.empty()) << "shard " << summary.shard_id;
#if PLT_OBS_ENABLED
  ASSERT_NE(tree, nullptr);
  EXPECT_NE(tree->descendant("shard-mine/shard-split"), nullptr);
  const obs::TraceNode* launch =
      tree->descendant("shard-mine/shard-wait/shard-launch");
  ASSERT_NE(launch, nullptr);
  EXPECT_EQ(launch->count, report.attempts);
  const obs::TraceNode* merge = tree->descendant("shard-mine/shard-merge");
  ASSERT_NE(merge, nullptr);
  EXPECT_EQ(merge->counter("shard.itemsets"), sharded.size());
  EXPECT_EQ(session.health().open_spans, 0u);
#endif
}

// ---- failure model ------------------------------------------------------

TEST_F(ShardTest, FailpointKilledWorkersResumeFromCheckpoints) {
  // Every shard's first attempt dies mid-window on an injected fault (the
  // worker process parses PLT_FAILPOINTS at first use); the relaunches run
  // clean, resume from the rank-granular logs, and the merged output must
  // still be byte-identical.
  const auto db = quest_db();
  const std::string dir = job_dir("quest_failpoint");
  ShardOptions opts = options(dir, 2);
  opts.extra_env_first_attempt = {"PLT_FAILPOINTS=ooc.rank=oneshot:5"};
  Emissions sharded;
  ShardReport report;
  ASSERT_EQ(mine_sharded(db, 3, collect_emissions(sharded), opts, &report),
            core::MineStatus::kCompleted);
  EXPECT_EQ(sharded, single_process_reference(dir));
  EXPECT_EQ(report.relaunches, 2u);
  EXPECT_EQ(report.attempts, 4u);
  // The relaunched workers really did resume: ranks replayed from the log,
  // not re-mined.
  std::uint64_t resumed = 0;
  for (const ShardSummary& summary : report.summaries)
    resumed += summary.resumed_ranks;
  EXPECT_GT(resumed, 0u);
}

TEST_F(ShardTest, RepeatedlyDyingShardExhaustsAttemptsAndFails) {
  const auto db = quest_db();
  const std::string dir = job_dir("quest_always_dies");
  ShardOptions opts = options(dir, 2);
  opts.max_launch_attempts = 2;
  // "always" keeps killing relaunches too — the job must give up, not spin.
  opts.launcher = [&](const std::vector<std::string>& argv,
                      const std::vector<std::string>&) {
    return spawn_with_env(argv, {"PLT_FAILPOINTS=ooc.rank=always"});
  };
  Emissions sharded;
  EXPECT_THROW((void)mine_sharded(db, 3, collect_emissions(sharded), opts),
               std::runtime_error);
}

TEST_F(ShardTest, HungWorkerIsKilledOnDeadlineAndRelaunched) {
  // The first launch hangs forever; the per-attempt MiningControl deadline
  // trips, the coordinator SIGKILLs it, and the relaunch completes.
  const auto db = testing::paper_table1();
  const std::string dir = job_dir("t1_hang");
  ShardOptions opts = options(dir, 2);
  opts.attempt_timeout = std::chrono::milliseconds(300);
  std::atomic<int> launches{0};
  opts.launcher = [&](const std::vector<std::string>& argv,
                      const std::vector<std::string>& env) {
    if (launches.fetch_add(1) == 0) return spawn_hanging();
    return spawn_with_env(argv, env);
  };
  Emissions sharded;
  ShardReport report;
  ASSERT_EQ(mine_sharded(db, 2, collect_emissions(sharded), opts, &report),
            core::MineStatus::kCompleted);
  EXPECT_EQ(sharded, single_process_reference(dir));
  EXPECT_GE(report.relaunches, 1u);
}

TEST_F(ShardTest, CallerCancellationKillsWorkersAndReturnsStatus) {
  const auto db = quest_db();
  const std::string dir = job_dir("quest_cancel");
  core::MiningControl control;
  control.request_cancel();
  ShardOptions opts = options(dir, 2);
  opts.control = &control;
  // Workers would hang forever; only the cancellation path can finish.
  opts.launcher = [&](const std::vector<std::string>&,
                      const std::vector<std::string>&) {
    return spawn_hanging();
  };
  Emissions sharded;
  EXPECT_EQ(mine_sharded(db, 3, collect_emissions(sharded), opts),
            core::MineStatus::kCancelled);
  EXPECT_TRUE(sharded.empty());
}

TEST_F(ShardTest, MergeRefusesMissingOrIncompleteLogs) {
  const auto db = quest_db();
  const std::string dir = job_dir("quest_merge_guard");
  Emissions sharded;
  ASSERT_EQ(mine_sharded(db, 3, collect_emissions(sharded),
                         options(dir, 2)),
            core::MineStatus::kCompleted);

  // Truncate shard 1's log: the torn record is dropped on read, the window
  // is incomplete, and the merge must refuse rather than emit a subset.
  const std::string log = checkpoint_path(dir, 1);
  fs::resize_file(log, fs::file_size(log) - 3);
  Emissions merged;
  EXPECT_THROW((void)merge_job(dir, collect_emissions(merged)),
               std::runtime_error);

  fs::remove(log);
  EXPECT_THROW((void)merge_job(dir, collect_emissions(merged)),
               std::runtime_error);
}

TEST_F(ShardTest, WorkerModeRejectsBadJobs) {
  // Library-level worker entry: bad directory and out-of-range shard ids
  // are ordinary failures (non-zero), not crashes.
  EXPECT_NE(run_worker("/nonexistent/shard/job", 0), 0);

  const auto db = testing::paper_table1();
  const std::string dir = job_dir("t1_badshard");
  ShardOptions opts = options(dir, 2);
  (void)prepare_job(db, 2, opts);
  EXPECT_NE(run_worker(dir, 99), 0);
}

TEST_F(ShardTest, PrepareValidatesOptions) {
  const auto db = testing::paper_table1();
  ShardOptions no_dir;
  EXPECT_THROW((void)prepare_job(db, 2, no_dir), std::invalid_argument);

  ShardOptions opts = options(job_dir("t1_run_nobin"), 2);
  const Manifest manifest = prepare_job(db, 2, opts);
  ShardOptions no_bin = opts;
  no_bin.worker_binary.clear();
  EXPECT_THROW((void)run_workers(manifest, no_bin), std::invalid_argument);
}

}  // namespace
}  // namespace plt::shard
