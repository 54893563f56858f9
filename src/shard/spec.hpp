// Shard job descriptions and the two small wire formats that glue the
// coordinator and its worker processes together (S26). A shard is a
// contiguous rank window [rank_lo, rank_hi] over one shared PLT3 blob:
// rank partitions are independent by construction (Def 4.1.3), so a worker
// that builds the blob's physical tree and mines rank_hi..rank_lo emits
// exactly the window's slice of the full-range OOC emission sequence.
// Both formats follow the house container rules (magic + varints +
// trailing CRC32C over everything after the magic), so a torn or corrupted
// file is rejected before any value is trusted:
//
//   "PLM2" (manifest, coordinator -> workers): blob CRC, min_support,
//   max_rank, the rank->item map and the shard windows. One file per job
//   directory; a worker needs nothing else besides the blob itself. A
//   manifest in the earlier "PLTM" layout is refused by its magic before
//   any field is read; its job must be split again.
//
//   "PLTS" (summary, worker -> coordinator): per-shard mining statistics.
//   Written atomically after the shard completes; the durable *result*
//   artifact is the shard's rank-granular checkpoint log, which doubles as
//   the exchange format the coordinator's ordered merge replays.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tdb/database.hpp"
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

/// Per-rank work weights of a ranked database (items are ranks
/// 1..max_rank, ascending within a row): weights[j-1] counts the positions
/// CD_j holds when every row is one record, so each row adds k to the
/// weight of its k-th rank (0-based) — the ranks below it, which
/// mine_rank(j) reads off parent links. A rank weighs what its own CD_j
/// costs, whichever rank tops the rows that hold it.
std::vector<std::uint64_t> rank_weights(const tdb::Database& ranked_db,
                                        Rank max_rank);

/// Splits [1, max_rank] into at most `shards` contiguous windows, balanced
/// by per-rank work weight (1 + weights[j-1], the constant for the fixed
/// per-rank cost; uniform when `weights` is empty): each window closes at
/// the rank boundary nearest its share of the remaining weight. Windows
/// are returned in shard-id order: shard 0 holds max_rank. Never returns
/// an empty window; fewer than `shards` specs come back when max_rank is
/// small. Throws std::invalid_argument when shards == 0 or max_rank == 0.
std::vector<ShardSpec> split_shards(std::span<const std::uint64_t> weights,
                                    Rank max_rank, std::size_t shards);

/// Everything a worker needs to know about the job, minus the blob bytes.
struct Manifest {
  std::uint32_t blob_crc = 0;  ///< CRC32C of the whole PLT3 blob
  Count min_support = 0;
  Rank max_rank = 0;
  std::vector<Item> item_of;  ///< item_of[r-1] = original item of rank r
  std::vector<ShardSpec> shards;
};

std::vector<std::uint8_t> encode_manifest(const Manifest& manifest);
/// Throws std::runtime_error on bad magic (the older PLTM layout
/// included), truncation, CRC mismatch, or structurally impossible
/// contents (empty/overlapping shard windows).
Manifest decode_manifest(std::span<const std::uint8_t> bytes);

/// Per-shard mining report.
struct ShardSummary {
  std::size_t shard_id = 0;
  Rank rank_lo = 0;
  Rank rank_hi = 0;
  std::uint64_t itemsets = 0;
  std::uint64_t bytes_decoded = 0;
  std::uint64_t checkpoint_records = 0;
  std::uint64_t resumed_ranks = 0;
  /// Always 0: workers no longer stream ranks without emitting. Kept in
  /// the PLTS layout so existing readers keep decoding it.
  std::uint64_t warmed_ranks = 0;
  std::uint64_t wall_ns = 0;  ///< worker wall time for the mine
  /// Always empty: workers record no trace. Kept in the PLTS layout, like
  /// warmed_ranks, so existing readers keep decoding it.
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
