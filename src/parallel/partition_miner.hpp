// Parallel partition mining — the paper's §6 claim that "PLT provides
// partition criteria that makes it easy to partition the mining process into
// several separate tasks; each can be accomplished separately."
//
// The partition criterion is the vector sum: the conditional database of
// rank j is derivable from transaction prefixes alone, so the per-item
// subproblems {mine everything whose highest rank is j} are fully
// independent. We materialize each CD_j in one shared pass over the ranked
// database and mine the subproblems with a crew of workers over a
// work-stealing claim queue: each worker drains its own contiguous window of
// ranks through an atomic cursor and, when empty, steals chunks from the
// fullest peer window — no mutex anywhere on the hot path. Every worker owns
// a pooled ProjectionEngine, so conditional projections recycle arenas
// across all the subproblems that worker touches. Results land in per-rank
// slots (each written by exactly one worker) and are concatenated in rank
// order afterwards, so the output is byte-identical for every thread count.
#pragma once

#include "core/conditional.hpp"
#include "core/miner.hpp"
#include "obs/histogram.hpp"

namespace plt::parallel {

struct ParallelOptions {
  std::size_t threads = 2;
  core::ConditionalOptions conditional;
  tdb::ItemOrder item_order = tdb::ItemOrder::kById;
  /// Ranks taken per steal once a worker's own window is empty. Small keeps
  /// the tail balanced; large amortizes the (cheap) claim contention.
  std::size_t steal_chunk = 4;
  /// Cooperative cancellation / deadline / budget shared by all workers;
  /// each checks it before claiming a rank. Null = unlimited.
  const core::MiningControl* control = nullptr;
  /// Execution plan of this call only. Adaptive gives every worker engine
  /// the same shared planner, so plans (and output — byte-identical
  /// anyway) stay thread-count-invariant.
  core::PlanMode plan = core::PlanMode::kFixed;
  /// Cost-model thresholds used when the adaptive plan is active.
  core::PlanConfig plan_config;
  /// Optional per-rank mine-latency distribution (one record per rank
  /// task, whichever worker ran it). Per-worker histograms merge by bucket
  /// addition, so the merged distribution is thread-count-invariant in
  /// shape — only the durations themselves vary run to run. Null skips the
  /// clock reads entirely.
  obs::LatencyHistogram* rank_latency = nullptr;
};

/// Mines all frequent itemsets of `db`; result is identical (after
/// canonicalization) to the sequential conditional miner's, and identical
/// byte-for-byte across thread counts. MineResult::projection aggregates the
/// per-worker engine counters, including the steal count.
core::MineResult mine_parallel(const tdb::Database& db, Count min_support,
                               const ParallelOptions& options = {});

}  // namespace plt::parallel
