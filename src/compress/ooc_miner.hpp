// Mining straight from a serialized PLT blob, the miner every plt-shard
// worker runs. One checked pass over the blob's entries (every frame CRC,
// every entry's positions) builds the physical tree of core/tree_view.hpp,
// weighted by frequency; the projection engine's mine_rank() then runs
// Algorithm 3's rank loop over it, exactly as core::mine does. The tree is
// only read, so the paper's "Update PLT with V'" re-insert costs nothing
// and a rank window or a resume only changes which ranks are mined. The
// engine's subtree cost model decides from shapes alone and its emission
// order is strategy-invariant, so checkpoint records stay exact.
//
// Each rank mines into one reused FrequentItemsets block, which is then
// replayed to the sink in emission order. The rank walk doubles as a
// recovery boundary: with a checkpoint path configured, every completed
// rank's block is appended as one record (see checkpoint.hpp) and a
// crashed run resumes from the first unrecorded rank, replaying the
// recorded emissions so the combined output is byte-identical to an
// uninterrupted mine (tests enforce it).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/exec_control.hpp"
#include "core/itemset_collector.hpp"

namespace plt::compress {

struct OocStats {
  /// Entry bytes decoded to build the tree: every entry once, whatever the
  /// rank window.
  std::size_t bytes_decoded = 0;
  /// The physical tree's bytes (TreeView::memory_usage), the resident
  /// structure the rank loop reads. The name predates the tree; perfbench
  /// reads the field under it.
  std::size_t peak_overlay_bytes = 0;
  std::uint64_t checkpoint_records = 0;  ///< rank records written this run
  std::uint64_t resumed_ranks = 0;   ///< ranks replayed from a checkpoint
  core::ResilienceStats resilience;  ///< control/failpoint/CRC activity
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
  /// Rank window to mine, inclusive (0 = unbounded end: the full range
  /// [1, max_rank]). This is the shard-worker unit: rank partitions are
  /// independent by construction (Def 4.1.3), and the tree is built from
  /// every entry, so mining rank_hi..rank_lo emits exactly the window's
  /// slice of the full-range emission sequence. The checkpoint binding
  /// folds a proper sub-window into the blob CRC (see window_binding_crc),
  /// so logs from different windows never cross-replay. Throws
  /// std::invalid_argument when the window is empty or exceeds max_rank.
  Rank rank_lo = 0;
  Rank rank_hi = 0;
};

/// Mines every frequent itemset of the PLT serialized in `blob` at
/// `min_support`. `item_of[r-1]` maps rank r to the original item id
/// reported through the sink (pass 1..max_rank for identity). Results are
/// identical to in-memory conditional mining of the decoded PLT (tests
/// enforce it). Returns kCompleted for an exhaustive mine, or the tripped
/// control's status after a clean early unwind (already-emitted itemsets
/// stay valid). Throws std::runtime_error on malformed blobs or item maps
/// that do not cover every rank. Inside a caller's obs::TraceSession the
/// walk records an "ooc-mine" span (with "ooc-resume" under it when a log
/// is replayed); with no session it records nothing.
core::MineStatus mine_from_blob(std::span<const std::uint8_t> blob,
                                const std::vector<Item>& item_of,
                                Count min_support,
                                const core::ItemsetSink& sink,
                                OocStats* stats = nullptr,
                                const OocOptions& options = {});

}  // namespace plt::compress
