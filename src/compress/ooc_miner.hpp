// Out-of-core-style mining straight from a serialized PLT blob — the
// payoff of the paper's indexing claim (§1/§6): with the sum-bucket index,
// the conditional approach never needs the whole structure decoded. The
// base vectors stream out of the blob bucket by bucket (highest rank
// first); only the re-inserted prefixes and the per-item conditional PLTs
// live in memory, which is exactly the working set of one partition task.
//
// The rank walk doubles as a recovery boundary: with a checkpoint path
// configured, every completed rank appends one record (see checkpoint.hpp)
// and a crashed run resumes from the first unrecorded rank, replaying the
// recorded emissions so the combined output is byte-identical to an
// uninterrupted mine (tests enforce it).
#pragma once

#include <memory>
#include <span>
#include <string>

#include "compress/index.hpp"
#include "core/exec_control.hpp"
#include "core/itemset_collector.hpp"
#include "core/planner.hpp"
#include "obs/trace.hpp"
#include "tdb/stats.hpp"

namespace plt::compress {

struct OocStats {
  std::size_t bytes_decoded = 0;     ///< blob bytes visited
  std::size_t peak_overlay_bytes = 0; ///< in-memory prefix overlay footprint
  std::uint64_t checkpoint_records = 0;  ///< rank records written this run
  std::uint64_t resumed_ranks = 0;   ///< ranks replayed from a checkpoint
  /// Ranks streamed without emitting (window warm-up above rank_hi plus the
  /// re-streamed prefix of a resumed run).
  std::uint64_t warmed_ranks = 0;
  core::ResilienceStats resilience;  ///< control/failpoint/CRC activity
  /// Aggregated span tree of this run when tracing was enabled and no outer
  /// session owned the walk (same contract as MineResult::trace); null
  /// otherwise. A resumed run's tree carries the "ooc-resume" span.
  std::shared_ptr<const obs::TraceNode> trace;
};

struct OocOptions {
  /// Cooperative cancellation / deadline / memory budget, checked once per
  /// rank. Null = unlimited.
  const core::MiningControl* control = nullptr;
  /// Path of the crash-recovery log; empty disables checkpointing. The log
  /// is bound to (blob CRC, min_support), so a stale file from different
  /// inputs is ignored, not replayed.
  std::string checkpoint_path;
  /// With a checkpoint path set: replay a matching existing log instead of
  /// restarting from scratch. false always restarts (the log is rewritten).
  bool resume = true;
  /// Execution plan of this call only. Adaptive routes each streamed
  /// rank's conditional subtrees through the planner; emissions stay
  /// byte-identical in content and order, so checkpoints written under one
  /// plan replay under the other.
  core::PlanMode plan = core::PlanMode::kFixed;
  /// Cost-model thresholds used when the adaptive plan is active.
  core::PlanConfig plan_config;
  /// Rank window to mine, inclusive (0 = unbounded end: the full range
  /// [1, max_rank]). This is the shard-worker unit: rank partitions are
  /// independent by construction (Def 4.1.3), so a worker that streams the
  /// ranks above rank_hi *without emitting* (the same warm pass a resume
  /// performs — the overlay is a pure function of (blob, ranks processed))
  /// and then mines rank_hi..rank_lo emits exactly the window's slice of
  /// the full-range emission sequence. The checkpoint binding folds a
  /// proper sub-window into the blob CRC (see window_binding_crc), so logs
  /// from different windows never cross-replay. Throws
  /// std::invalid_argument when the window is empty or exceeds max_rank.
  Rank rank_lo = 0;
  Rank rank_hi = 0;
  /// Per-partition stats of the ranked view the blob was built from (entry
  /// j-1 describes partition j, as compute_all_partition_stats returns).
  /// Optional; consulted only under the adaptive plan, by a rank-level
  /// planner that owns these *view* stats — the projection engine itself
  /// stays shape-only, because its depth-0 subtrees live inside one rank's
  /// conditional database and must not be mistaken for view partitions.
  /// The win is the O(1) single-path witness: when every partition at or
  /// above a streamed rank is all full paths, that rank's whole subtree
  /// expands without building a conditional PLT.
  std::vector<tdb::PartitionStats> partition_stats;
};

/// Mines every frequent itemset of the PLT serialized in `blob` at
/// `min_support`. `item_of[r-1]` maps rank r to the original item id
/// reported through the sink (pass 1..max_rank for identity). Results are
/// identical to in-memory conditional mining of the decoded PLT (tests
/// enforce it). Returns kCompleted for an exhaustive mine, or the tripped
/// control's status after a clean early unwind (already-emitted itemsets
/// stay valid). Throws std::runtime_error on malformed blobs or item maps
/// that do not cover every rank.
core::MineStatus mine_from_blob(std::span<const std::uint8_t> blob,
                                const std::vector<Item>& item_of,
                                Count min_support,
                                const core::ItemsetSink& sink,
                                OocStats* stats = nullptr,
                                const OocOptions& options = {});

}  // namespace plt::compress
