// Shard-parallel mining across processes (S26): the coordinator must be
// provably a no-op relative to a single process. The differential suites
// fork real plt-shard workers (PLT_SHARD_BIN) over 1/2/4 shards and demand
// the merged emission stream byte-identical to one mine_from_blob walk —
// including after a failpoint kills every first-attempt worker mid-run and
// the relaunches resume from the rank-granular checkpoint logs, and after
// a hung worker is SIGKILLed on its MiningControl deadline. The wire
// formats (PLTM manifest, PLTS summary) get the usual adversarial
// treatment: corruption, truncation and structurally impossible contents
// must throw, never mislead a worker.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
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
  // All the weight sits on the top two ranks: a 2-way split must give the
  // first shard a much narrower window than the uniform split would.
  std::vector<tdb::PartitionStats> stats(100);
  for (Rank j = 1; j <= 100; ++j) stats[j - 1].rank = j;
  stats[99].prefix_items = 5000;
  stats[98].prefix_items = 5000;
  const auto specs = split_shards(stats, 100, 2);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_LE(specs[0].rank_hi - specs[0].rank_lo, 5u);
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
  manifest.partition_stats = tdb::compute_all_partition_stats(
      core::build_from_database(testing::paper_table1(), 2).view.db, 4);
  manifest.shards = split_shards({}, 5, 2);
  manifest.plan = core::PlanMode::kAdaptive;

  const auto decoded = decode_manifest(encode_manifest(manifest));
  EXPECT_EQ(decoded.blob_crc, manifest.blob_crc);
  EXPECT_EQ(decoded.min_support, manifest.min_support);
  EXPECT_EQ(decoded.max_rank, manifest.max_rank);
  EXPECT_EQ(decoded.item_of, manifest.item_of);
  EXPECT_EQ(decoded.plan, manifest.plan);
  ASSERT_EQ(decoded.shards.size(), manifest.shards.size());
  for (std::size_t k = 0; k < decoded.shards.size(); ++k) {
    EXPECT_EQ(decoded.shards[k].rank_lo, manifest.shards[k].rank_lo);
    EXPECT_EQ(decoded.shards[k].rank_hi, manifest.shards[k].rank_hi);
  }
  ASSERT_EQ(decoded.partition_stats.size(), manifest.partition_stats.size());
  for (std::size_t i = 0; i < decoded.partition_stats.size(); ++i) {
    EXPECT_EQ(decoded.partition_stats[i].rank,
              manifest.partition_stats[i].rank);
    EXPECT_DOUBLE_EQ(decoded.partition_stats[i].density,
                     manifest.partition_stats[i].density);
    EXPECT_DOUBLE_EQ(decoded.partition_stats[i].support_gini,
                     manifest.partition_stats[i].support_gini);
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

// The plan travels by name. A well-sealed manifest whose name parse_plan
// does not know (empty included) is hostile input, not a default.
TEST(ShardWire, ManifestRejectsUnknownPlanNames) {
  Manifest manifest;
  manifest.max_rank = 4;
  manifest.item_of = {1, 2, 3, 4};
  manifest.shards = split_shards({}, 4, 2);
  const auto fixed = encode_manifest(manifest);
  // The name is the last field: varint length, bytes, then the CRC.
  const std::size_t name_at = fixed.size() - 4 - std::strlen("fixed") - 1;
  const auto with_plan_name = [&](std::string_view name) {
    std::vector<std::uint8_t> bytes(fixed.begin(),
                                    fixed.begin() +
                                        static_cast<std::ptrdiff_t>(name_at));
    compress::put_varint(bytes, name.size());
    bytes.insert(bytes.end(), name.begin(), name.end());
    bytes.resize(bytes.size() + 4);
    testing::reseal_container(bytes);
    return bytes;
  };
  EXPECT_EQ(with_plan_name("fixed"), fixed);
  EXPECT_EQ(decode_manifest(with_plan_name("adaptive")).plan,
            core::PlanMode::kAdaptive);
  EXPECT_THROW((void)decode_manifest(with_plan_name("")), std::runtime_error);
  EXPECT_THROW((void)decode_manifest(with_plan_name("psychic")),
               std::runtime_error);
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

TEST_F(ShardTest, AdaptivePlanShardsStayByteIdentical) {
  const auto db = quest_db();
  const std::string dir = job_dir("quest_adaptive");
  ShardOptions opts = options(dir, 3);
  opts.plan = core::PlanMode::kAdaptive;
  Emissions sharded;
  ASSERT_EQ(mine_sharded(db, 3, collect_emissions(sharded), opts),
            core::MineStatus::kCompleted);
  EXPECT_EQ(sharded, single_process_reference(dir));
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
