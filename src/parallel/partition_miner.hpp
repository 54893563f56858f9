// Parallel partition mining — the paper's §6 claim that "PLT provides
// partition criteria that makes it easy to partition the mining process into
// several separate tasks; each can be accomplished separately."
//
// The partition criterion is the vector sum: the conditional database of
// rank j is derivable from transaction prefixes alone, so the per-item
// subproblems {mine everything whose highest rank is j} are fully
// independent. One physical tree (core/tree_view.hpp) is built and shared
// read-only: CD_j is the parents' paths of its rank-j nodes, which the
// sequential miner's per-rank step reads the same way. A crew of workers
// runs those steps over a work-stealing claim queue: each worker drains its
// own contiguous window of ranks through an atomic cursor and, when empty,
// steals chunks from the fullest peer window — no mutex anywhere on the hot
// path. Every worker owns a pooled ProjectionEngine, so conditional
// projections recycle arenas across all the subproblems that worker
// touches, and its subtree decisions depend on each CD's shape alone — the
// same decisions whichever worker claims a rank. Results land in per-rank
// FrequentItemsets blocks (each written by exactly one worker) and are
// appended in rank order afterwards, one rebasing pass per block, so the
// output is byte-identical for every thread count. Each worker binds the
// caller's core::ThreadContext, so the crew records into the caller's trace
// session and runs the validator's hooks when the caller does.
#pragma once

#include "core/miner.hpp"
#include "obs/histogram.hpp"

namespace plt::parallel {

struct ParallelOptions {
  std::size_t threads = 2;
  /// Cooperative cancellation / deadline / budget shared by all workers;
  /// each checks it before claiming a rank. Null = unlimited.
  const core::MiningControl* control = nullptr;
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
