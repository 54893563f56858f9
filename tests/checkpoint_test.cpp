// Crash-recoverable out-of-core mining: a failpoint kills the blob walk
// mid-run, a second run resumes from the rank-granular checkpoint log, and
// the combined emission sequence must be byte-identical to an uninterrupted
// mine. Also covers the blob container hardening (CRC rejection) and
// atomic blob file writes.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>
#include <vector>

#include "compress/blob_format.hpp"
#include "compress/checkpoint.hpp"
#include "compress/codec.hpp"
#include "compress/index.hpp"
#include "compress/ooc_miner.hpp"
#include "compress/varint.hpp"
#include "core/builder.hpp"
#include "datagen/quest.hpp"
#include "util/crc32c.hpp"
#include "util/failpoint.hpp"

namespace plt::compress {
namespace {

namespace fs = std::filesystem;

// One emission as the sink saw it; sequences compare order-sensitively, so
// equality really is "same bytes in the same order".
using Emissions = std::vector<std::pair<Itemset, Count>>;

struct Workload {
  std::vector<std::uint8_t> blob;
  std::vector<Item> item_of;
};

Workload sample_workload() {
  datagen::QuestConfig cfg;
  cfg.transactions = 300;
  cfg.items = 40;
  cfg.seed = 3;
  const auto built =
      core::build_from_database(datagen::generate_quest(cfg), 3);
  Workload w;
  w.blob = encode_plt(built.plt);
  w.item_of.resize(built.view.alphabet());
  for (Rank r = 1; r <= built.view.alphabet(); ++r)
    w.item_of[r - 1] = built.view.item_of(r);
  return w;
}

Emissions mine_collecting(const Workload& w, Count minsup,
                          const OocOptions& options = {},
                          OocStats* stats = nullptr) {
  Emissions out;
  mine_from_blob(
      w.blob, w.item_of, minsup,
      [&](std::span<const Item> items, Count support) {
        out.emplace_back(Itemset(items.begin(), items.end()), support);
      },
      stats, options);
  return out;
}

class Checkpoint : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::instance().disarm_all(); }
  void TearDown() override { FailpointRegistry::instance().disarm_all(); }

  std::string temp_path(const char* name) const {
    return (fs::path(::testing::TempDir()) / name).string();
  }

  // Runs the workload until the armed "ooc.rank" failpoint kills it,
  // leaving a partial checkpoint log at `path`.
  void crash_run(const Workload& w, Count minsup, const std::string& path,
                 std::uint64_t kill_at_rank_step) {
    FailpointRegistry::Spec spec;
    spec.mode = FailpointRegistry::Mode::kOneShot;
    spec.n = kill_at_rank_step;
    FailpointRegistry::instance().arm("ooc.rank", spec);
    OocOptions options;
    options.checkpoint_path = path;
    EXPECT_THROW((void)mine_collecting(w, minsup, options), InjectedFault);
    FailpointRegistry::instance().disarm("ooc.rank");
  }
};

TEST_F(Checkpoint, KillAndResumeIsByteIdentical) {
  const auto w = sample_workload();
  const Emissions reference = mine_collecting(w, 3);
  ASSERT_FALSE(reference.empty());

  const std::string path = temp_path("kill_resume.pltk");
  crash_run(w, 3, path, 5);  // dies entering the 5th rank: 4 ranks durable

  OocOptions options;
  options.checkpoint_path = path;
  OocStats stats;
  const Emissions resumed = mine_collecting(w, 3, options, &stats);
  EXPECT_EQ(resumed, reference);
  EXPECT_EQ(stats.resumed_ranks, 4u);
  EXPECT_GT(stats.checkpoint_records, 0u);
  std::remove(path.c_str());
}

TEST_F(Checkpoint, RepeatedCrashesStillConverge) {
  // Crash twice at different depths; each resume extends the log, and the
  // final uninterrupted pass must still reproduce the reference exactly.
  const auto w = sample_workload();
  const Emissions reference = mine_collecting(w, 3);
  const std::string path = temp_path("double_crash.pltk");

  crash_run(w, 3, path, 3);
  {
    // Second run resumes past rank 2, then dies again further in.
    FailpointRegistry::Spec spec;
    spec.mode = FailpointRegistry::Mode::kOneShot;
    spec.n = 6;
    FailpointRegistry::instance().arm("ooc.rank", spec);
    OocOptions options;
    options.checkpoint_path = path;
    EXPECT_THROW((void)mine_collecting(w, 3, options), InjectedFault);
    FailpointRegistry::instance().disarm("ooc.rank");
  }

  OocOptions options;
  options.checkpoint_path = path;
  OocStats stats;
  const Emissions resumed = mine_collecting(w, 3, options, &stats);
  EXPECT_EQ(resumed, reference);
  EXPECT_GT(stats.resumed_ranks, 2u);
  std::remove(path.c_str());
}

TEST_F(Checkpoint, ResumeDisabledRestartsFresh) {
  const auto w = sample_workload();
  const Emissions reference = mine_collecting(w, 3);
  const std::string path = temp_path("no_resume.pltk");
  crash_run(w, 3, path, 5);

  OocOptions options;
  options.checkpoint_path = path;
  options.resume = false;
  OocStats stats;
  const Emissions mined = mine_collecting(w, 3, options, &stats);
  EXPECT_EQ(mined, reference);
  EXPECT_EQ(stats.resumed_ranks, 0u);
  std::remove(path.c_str());
}

TEST_F(Checkpoint, MismatchedSupportIgnoresLog) {
  // The log binds (blob CRC, min_support): a log written at minsup 3 must
  // not be replayed into a minsup 4 mine.
  const auto w = sample_workload();
  const std::string path = temp_path("mismatch.pltk");
  crash_run(w, 3, path, 5);

  OocOptions options;
  options.checkpoint_path = path;
  OocStats stats;
  const Emissions mined = mine_collecting(w, 4, options, &stats);
  EXPECT_EQ(stats.resumed_ranks, 0u);
  EXPECT_EQ(mined, mine_collecting(w, 4));
  std::remove(path.c_str());
}

TEST_F(Checkpoint, TornTailIsDroppedNotTrusted) {
  // Chop bytes off the log so the last record is torn mid-encoding: the
  // reader must keep the intact prefix, drop the tail, and the resumed
  // mine must still match the reference byte for byte.
  const auto w = sample_workload();
  const Emissions reference = mine_collecting(w, 3);
  const std::string path = temp_path("torn.pltk");
  crash_run(w, 3, path, 6);

  const auto size = fs::file_size(path);
  ASSERT_GT(size, 3u);
  fs::resize_file(path, size - 3);

  OocOptions options;
  options.checkpoint_path = path;
  OocStats stats;
  const Emissions resumed = mine_collecting(w, 3, options, &stats);
  EXPECT_EQ(resumed, reference);
  EXPECT_LT(stats.resumed_ranks, 5u);  // the torn record cannot count
  std::remove(path.c_str());
}

TEST_F(Checkpoint, GarbageLogIsIgnored) {
  const auto w = sample_workload();
  const std::string path = temp_path("garbage.pltk");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a checkpoint", f);
    std::fclose(f);
  }
  OocOptions options;
  options.checkpoint_path = path;
  OocStats stats;
  const Emissions mined = mine_collecting(w, 3, options, &stats);
  EXPECT_EQ(stats.resumed_ranks, 0u);
  EXPECT_EQ(mined, mine_collecting(w, 3));
  std::remove(path.c_str());
}

TEST_F(Checkpoint, CompletedRunWritesOneRecordPerRank) {
  const auto w = sample_workload();
  const std::string path = temp_path("complete.pltk");
  OocOptions options;
  options.checkpoint_path = path;
  OocStats stats;
  (void)mine_collecting(w, 3, options, &stats);
  const auto index = build_index(w.blob);
  EXPECT_EQ(stats.checkpoint_records, index.max_rank);
  std::remove(path.c_str());
}

TEST_F(Checkpoint, ResumesACommittedLogByteIdentically) {
  // tests/golden/checkpoint_quest_minsup8.pltk was written by the
  // out-of-core miner as it was before it mined the physical tree (it
  // re-inserted peeled prefixes into a per-rank overlay), on this workload
  // at minsup 8, killed by the ooc.rank failpoint on its 21st rank: 20 of
  // 40 ranks durable. Resuming it must replay those records and mine the
  // rest byte-identically. The log binds the blob's CRC, so a change to
  // the blob encoding voids the binding and fails here; when the entries
  // became LEB128 (PLT3), only the header's blob_crc and header CRC were
  // rewritten to bind the new blob, and every record byte was kept.
  constexpr std::uint64_t kGoldenRecords = 20;
  const auto w = sample_workload();
  const Emissions reference = mine_collecting(w, 8);

  const std::string path = temp_path("golden_resume.pltk");
  fs::copy_file(fs::path(PLT_CHECKPOINT_GOLDEN_DIR) /
                    "checkpoint_quest_minsup8.pltk",
                path, fs::copy_options::overwrite_existing);
  CheckpointLog golden;
  ASSERT_TRUE(read_checkpoint(path, crc32c(w.blob), 8,
                              static_cast<Rank>(w.item_of.size()), golden));
  ASSERT_EQ(golden.records.size(), kGoldenRecords);

  OocOptions options;
  options.checkpoint_path = path;
  OocStats stats;
  const Emissions resumed = mine_collecting(w, 8, options, &stats);
  EXPECT_EQ(resumed, reference);
  EXPECT_EQ(stats.resumed_ranks, kGoldenRecords);
  EXPECT_EQ(stats.checkpoint_records, w.item_of.size());
  std::remove(path.c_str());
}

// ---- rank windows (the shard-worker unit) -------------------------------

TEST_F(Checkpoint, WindowedMiningTilesTheFullRange) {
  // Rank partitions are independent (Def 4.1.3): mining the high window and
  // then the low window of the same blob must concatenate to exactly the
  // full-range emission sequence.
  const auto w = sample_workload();
  const Emissions reference = mine_collecting(w, 3);
  const Rank max_rank = static_cast<Rank>(build_index(w.blob).max_rank);
  ASSERT_GT(max_rank, 2u);
  const Rank split = max_rank / 2;

  OocOptions high;
  high.rank_lo = split + 1;
  high.rank_hi = max_rank;
  OocStats high_stats;
  Emissions combined = mine_collecting(w, 3, high, &high_stats);

  OocOptions low;
  low.rank_lo = 1;
  low.rank_hi = split;
  OocStats low_stats;
  const Emissions low_part = mine_collecting(w, 3, low, &low_stats);

  combined.insert(combined.end(), low_part.begin(), low_part.end());
  EXPECT_EQ(combined, reference);
}

TEST_F(Checkpoint, WindowRejectsInvalidBounds) {
  const auto w = sample_workload();
  const Rank max_rank = static_cast<Rank>(build_index(w.blob).max_rank);

  OocOptions empty;
  empty.rank_lo = 3;
  empty.rank_hi = 2;
  EXPECT_THROW((void)mine_collecting(w, 3, empty), std::invalid_argument);

  OocOptions beyond;
  beyond.rank_lo = 1;
  beyond.rank_hi = max_rank + 1;
  EXPECT_THROW((void)mine_collecting(w, 3, beyond), std::invalid_argument);
}

TEST_F(Checkpoint, WindowLogsDoNotCrossReplay) {
  // A log written for one window must never replay into another window of
  // the same blob at the same support: the binding CRC folds the window in.
  const auto w = sample_workload();
  const Rank max_rank = static_cast<Rank>(build_index(w.blob).max_rank);
  ASSERT_GT(max_rank, 4u);
  const Rank split = max_rank / 2;
  const std::string path = temp_path("cross_window.pltk");

  {
    // Crash partway through the high window, leaving a valid windowed log.
    FailpointRegistry::Spec spec;
    spec.mode = FailpointRegistry::Mode::kOneShot;
    spec.n = 3;
    FailpointRegistry::instance().arm("ooc.rank", spec);
    OocOptions high;
    high.checkpoint_path = path;
    high.rank_lo = split + 1;
    high.rank_hi = max_rank;
    EXPECT_THROW((void)mine_collecting(w, 3, high), InjectedFault);
    FailpointRegistry::instance().disarm("ooc.rank");
  }

  OocOptions low;
  low.checkpoint_path = path;
  low.rank_lo = 1;
  low.rank_hi = split;
  OocStats stats;
  const Emissions mined = mine_collecting(w, 3, low, &stats);
  EXPECT_EQ(stats.resumed_ranks, 0u);

  OocOptions low_clean;
  low_clean.rank_lo = 1;
  low_clean.rank_hi = split;
  EXPECT_EQ(mined, mine_collecting(w, 3, low_clean));
  std::remove(path.c_str());
}

TEST_F(Checkpoint, WindowBindingCrcContract) {
  // Full range keeps the raw blob CRC (existing full-range logs stay
  // valid); every proper sub-window derives a distinct binding.
  const std::uint32_t blob_crc = 0xDEADBEEF;
  const Rank max_rank = 10;
  EXPECT_EQ(window_binding_crc(blob_crc, 1, max_rank, max_rank), blob_crc);

  const std::uint32_t low = window_binding_crc(blob_crc, 1, 5, max_rank);
  const std::uint32_t high = window_binding_crc(blob_crc, 6, 10, max_rank);
  EXPECT_NE(low, blob_crc);
  EXPECT_NE(high, blob_crc);
  EXPECT_NE(low, high);
}

TEST_F(Checkpoint, HeaderOnlyLogResumesZeroRanks) {
  // A worker can die after opening its log but before completing any rank.
  // The resumed run must see a valid header, replay nothing, and still
  // produce byte-identical output with one record per rank.
  const auto w = sample_workload();
  const Emissions reference = mine_collecting(w, 3);
  const Rank max_rank = static_cast<Rank>(build_index(w.blob).max_rank);
  const std::string path = temp_path("header_only.pltk");
  { CheckpointWriter writer(path, crc32c(w.blob), 3, max_rank); }

  OocOptions options;
  options.checkpoint_path = path;
  OocStats stats;
  const Emissions resumed = mine_collecting(w, 3, options, &stats);
  EXPECT_EQ(resumed, reference);
  EXPECT_EQ(stats.resumed_ranks, 0u);
  EXPECT_EQ(stats.checkpoint_records, max_rank);
  std::remove(path.c_str());
}

TEST_F(Checkpoint, RecordWithAnInvalidItemsetIsDroppedAsTorn) {
  // A record whose CRC holds but whose itemset is empty, or whose item
  // does not fit 32 bits, must be dropped like a torn tail: nothing is
  // replayed and its rank is mined again.
  const auto w = sample_workload();
  const Emissions reference = mine_collecting(w, 3);
  const Rank max_rank = static_cast<Rank>(build_index(w.blob).max_rank);
  const std::vector<std::uint64_t> empty_itemset = {0};
  const std::vector<std::uint64_t> wide_item = {1, std::uint64_t{1} << 32};
  for (const auto& itemset : {empty_itemset, wide_item}) {
    const std::string path = temp_path("invalid_itemset.pltk");
    { CheckpointWriter writer(path, crc32c(w.blob), 3, max_rank); }
    std::vector<std::uint8_t> record;
    put_varint(record, max_rank);  // the window top, as a writer would
    put_varint(record, 1);         // one itemset
    for (const std::uint64_t value : itemset) put_varint(record, value);
    put_varint(record, 5);  // support
    append_u32le(record, crc32c(record));
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(record.data(), 1, record.size(), f), record.size());
    std::fclose(f);

    OocOptions options;
    options.checkpoint_path = path;
    OocStats stats;
    const Emissions resumed = mine_collecting(w, 3, options, &stats);
    EXPECT_EQ(resumed, reference);
    EXPECT_EQ(stats.resumed_ranks, 0u);
    std::remove(path.c_str());
  }
}

// ---- blob container hardening -------------------------------------------

// Named for PLT2, the first container with frame CRCs; PLT3 keeps them.
TEST_F(Checkpoint, Plt2RejectsPayloadCorruptionByCrc) {
  const auto w = sample_workload();
  ASSERT_EQ(w.blob[3], '3');  // the encoder emits the checksummed container
  // Flip one payload byte far from the header: only the frame CRC can
  // notice this class of corruption.
  auto corrupt = w.blob;
  corrupt[corrupt.size() - 8] ^= 0x40;
  EXPECT_THROW((void)decode_plt(corrupt), std::runtime_error);
  EXPECT_THROW((void)build_index(corrupt), std::runtime_error);
}

// ---- atomic blob file writes --------------------------------------------

TEST_F(Checkpoint, BlobFileRoundTrip) {
  const auto w = sample_workload();
  const std::string path = temp_path("blob.plt");
  write_blob_file(w.blob, path);
  EXPECT_EQ(read_blob_file(path), w.blob);
  std::remove(path.c_str());
}

TEST_F(Checkpoint, CrashBeforeRenameLeavesPreviousBlobIntact) {
  const auto w = sample_workload();
  const std::string path = temp_path("atomic.plt");
  write_blob_file(w.blob, path);

  // A "crash" between fsync and rename must leave the destination exactly
  // as it was; only the temp file is abandoned.
  FailpointRegistry::instance().arm("blob.write_file", {});
  const std::vector<std::uint8_t> other(100, 0xAB);
  EXPECT_THROW(write_blob_file(other, path), InjectedFault);
  FailpointRegistry::instance().disarm("blob.write_file");

  EXPECT_EQ(read_blob_file(path), w.blob);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace plt::compress
