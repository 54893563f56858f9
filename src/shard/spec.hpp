// Shard job descriptions and the two small wire formats that glue the
// coordinator and its worker processes together (S26). A shard is a
// contiguous rank window [rank_lo, rank_hi] over one shared PLT2 blob:
// rank partitions are independent by construction (Def 4.1.3), so a worker
// that warms the overlay above rank_hi and then mines rank_hi..rank_lo
// emits exactly the window's slice of the full-range OOC emission
// sequence. Both formats follow the house container rules (magic + varints
// + trailing CRC32C over everything after the magic), so a torn or
// corrupted file is rejected before any value is trusted:
//
//   "PLTM" (manifest, coordinator -> workers): blob CRC, min_support,
//   max_rank, the rank->item map, per-partition stats for the adaptive
//   planner, the shard windows, and the plan name ("fixed" or
//   "adaptive"; any other name is rejected as hostile). One file per job
//   directory; a worker needs nothing else besides the blob itself.
//
//   "PLTS" (summary, worker -> coordinator): per-shard mining statistics
//   plus the worker's plt-trace-v1 JSON when tracing was enabled. Written
//   atomically after the shard completes; the durable *result* artifact is
//   the shard's rank-granular checkpoint log, which doubles as the
//   exchange format the coordinator's ordered merge replays.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "tdb/stats.hpp"
#include "util/common.hpp"

namespace plt::shard {

/// One worker's assignment: mine ranks [rank_lo, rank_hi] (inclusive).
/// Shard 0 owns the highest ranks; ids increase toward rank 1, so merging
/// logs in shard order reproduces the single-process max_rank..1 walk.
struct ShardSpec {
  std::size_t shard_id = 0;
  Rank rank_lo = 0;
  Rank rank_hi = 0;
};

/// Splits [1, max_rank] into at most `shards` contiguous windows, balanced
/// by per-partition work weight (1 + transactions + prefix_items from
/// `stats`, or uniform when stats are empty). Windows are returned in
/// shard-id order: shard 0 holds max_rank. Never returns an empty window;
/// fewer than `shards` specs come back when max_rank is small. Throws
/// std::invalid_argument when shards == 0 or max_rank == 0.
std::vector<ShardSpec> split_shards(
    std::span<const tdb::PartitionStats> stats, Rank max_rank,
    std::size_t shards);

/// Everything a worker needs to know about the job, minus the blob bytes.
struct Manifest {
  std::uint32_t blob_crc = 0;  ///< CRC32C of the whole PLT2 blob
  Count min_support = 0;
  Rank max_rank = 0;
  std::vector<Item> item_of;  ///< item_of[r-1] = original item of rank r
  /// Per-partition stats of the source view (entry j-1 = partition j),
  /// forwarded so workers can run the adaptive planner's rank-level
  /// single-path witness without rescanning the database.
  std::vector<tdb::PartitionStats> partition_stats;
  std::vector<ShardSpec> shards;
  core::PlanMode plan = core::PlanMode::kFixed;  ///< travels by plan_name
};

std::vector<std::uint8_t> encode_manifest(const Manifest& manifest);
/// Throws std::runtime_error on bad magic, truncation, CRC mismatch, or
/// structurally impossible contents (empty/overlapping shard windows, a
/// plan name parse_plan does not know).
Manifest decode_manifest(std::span<const std::uint8_t> bytes);

/// Per-shard mining report; the trace JSON is the worker's own
/// plt-trace-v1 export (empty when tracing was off in the worker).
struct ShardSummary {
  std::size_t shard_id = 0;
  Rank rank_lo = 0;
  Rank rank_hi = 0;
  std::uint64_t itemsets = 0;
  std::uint64_t bytes_decoded = 0;
  std::uint64_t checkpoint_records = 0;
  std::uint64_t resumed_ranks = 0;
  std::uint64_t warmed_ranks = 0;
  std::uint64_t wall_ns = 0;  ///< worker wall time for the mine
  std::string trace_json;
};

std::vector<std::uint8_t> encode_summary(const ShardSummary& summary);
/// Throws std::runtime_error on bad magic, truncation, or CRC mismatch.
ShardSummary decode_summary(std::span<const std::uint8_t> bytes);

/// Canonical layout of a job directory. Workers and coordinator agree on
/// these names, so a job directory is self-describing and an ssh-style
/// launcher only needs to ship the directory.
std::string blob_path(const std::string& dir);
std::string manifest_path(const std::string& dir);
std::string checkpoint_path(const std::string& dir, std::size_t shard_id);
std::string summary_path(const std::string& dir, std::size_t shard_id);

}  // namespace plt::shard
