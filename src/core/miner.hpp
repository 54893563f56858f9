// Unified mining facade: one entry point over every algorithm in the repo —
// the paper's two PLT approaches plus the literature baselines — so tests,
// examples and benches drive them identically. The algorithm is the whole
// choice: both plt-conditional variants run the projection engine, which
// mines each subtree by pooled projection or, for small shapes, tidset
// intersection (core/projection_pool.hpp).
#pragma once

#include <string>

#include "core/exec_control.hpp"
#include "core/itemset_collector.hpp"
#include "core/projection_pool.hpp"
#include "tdb/database.hpp"
#include "tdb/remap.hpp"

namespace plt::core {

enum class Algorithm {
  kPltConditional,      ///< §5.1 Algorithm 3 (with item filtering)
  kPltConditionalNoFilter,  ///< Algorithm 3 without item filtering (ablation)
  kPltTopDownCanonical, ///< §5 Algorithm 2, lazy tail-drops
  kPltTopDownSweep,     ///< §5 Algorithm 2, prefixes at construction
  kAis,                 ///< Agrawal, Imielinski & Swami, SIGMOD'93 [1]
  kApriori,             ///< Agrawal & Srikant, VLDB'94 [2]
  kAprioriTid,          ///< same paper [2], encoded-database counting
  kDhp,                 ///< Park, Chen & Yu, SIGMOD'95 [5] (hash pruning)
  kDic,                 ///< Brin et al., SIGMOD'97 [7] (dynamic counting)
  kPartition,           ///< Savasere et al., VLDB'95 (two-pass chunks)
  kFpGrowth,            ///< Han, Pei & Yin, SIGMOD'00 [3]
  kHMine,               ///< Pei et al., ICDM'01 [8] (pseudo-projection)
  kEclat,               ///< Zaki, TKDE'00 [12] (tidsets)
  kDEclat,              ///< Zaki & Gouda, KDD'03 [16] (diffsets)
  kBruteForce           ///< oracle, exponential — tests only
};

const char* algorithm_name(Algorithm algorithm);

/// All registered algorithms in a stable order (brute force excluded).
const std::vector<Algorithm>& all_algorithms();

struct MineOptions {
  tdb::ItemOrder item_order = tdb::ItemOrder::kById;
  /// Passed through to the top-down guards.
  std::uint32_t topdown_max_transaction_len = 24;
  /// Cooperative cancellation / deadline / memory budget, checked at
  /// projection boundaries on every algorithm path. Null = unlimited.
  const MiningControl* control = nullptr;
};

struct MineResult {
  FrequentItemsets itemsets;
  double build_seconds = 0.0;  ///< structure construction (incl. first scan)
  double mine_seconds = 0.0;   ///< enumeration
  /// Logical footprint of the built index. For plt-conditional this is
  /// the whole top-level working set — the physical tree, which mining
  /// reads without growing — and the base a MiningControl memory budget
  /// adds the projection engine's own bytes to.
  std::size_t structure_bytes = 0;
  /// Projection-engine counters (zero for algorithms that don't project
  /// through the pooled engine — baselines, top-down).
  ProjectionStats projection;
  /// kCompleted for an exhaustive mine; otherwise why it stopped early.
  /// Non-completed runs still carry every itemset emitted before the stop.
  MineStatus status = MineStatus::kCompleted;
  /// Set when status == kBudgetExceeded: how to retry within the budget
  /// (raise min_support or the budget).
  std::string degradation_hint;
};

/// Mines `db` at absolute support `min_support` with the chosen algorithm.
/// Itemsets are reported in original item ids and are exactly comparable
/// across algorithms via FrequentItemsets::equal. Inside a caller's
/// obs::TraceSession the call records a "mine" > "<algorithm-name>" span
/// pair; with no session it records nothing.
MineResult mine(const tdb::Database& db, Count min_support,
                Algorithm algorithm, const MineOptions& options = {});

}  // namespace plt::core
