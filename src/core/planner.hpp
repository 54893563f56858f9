// Adaptive execution planner: picks the mining strategy and the kernel
// backend per conditional subtree from cheap dataset statistics, instead
// of trusting one fixed choice for the whole mine. The benches
// (BENCH_adaptive.json, BENCH_kernels.json) show the winners are
// predictable from density / transaction length / support skew — the same
// observation arXiv 1312.4800 makes for extraction time in general — so
// the planner turns those measured thresholds into a small cost model:
//
//   * root strategy  — Eclat when the view is sparse enough that tidsets
//     stay short, or the lattice is shallow; pooled-conditional otherwise.
//     Top-down expansion (Algorithm 2) is never a root candidate:
//     BENCH_topdown_crossover.json has the pooled engine winning every §6
//     cell, so it stays reachable only as an explicit Algorithm.
//   * per-subtree    — single-path expansion when a conditional database
//     collapses to one vector (every subset shares one support; no
//     projection needed), tidset intersection for small shallow shapes,
//     pooled projection for everything else.
//   * kernel backend — per data-parallel call: tiny inputs take the scalar
//     table (SIMD setup costs more than it saves), wide inputs keep the
//     process-active SIMD table.
//
// All strategies agree bit-for-bit (DESIGN.md S25 has the emission-order
// argument), so plans change time, never output. Every decision is
// recorded as plan.* trace counters so a plan is auditable after the run.
//
// The plan is per-call state: each entry point's options carry a PlanMode
// (MineOptions, ParallelOptions, OocOptions, ShardOptions, and the PLTM
// manifest a shard worker reads), default fixed so golden traces and
// published numbers are untouched, and the call builds its own Planner only
// when asked for the adaptive plan. Concurrent mines with different plans
// never see each other's choice. Plan names are parsed in two places only:
// the --plan flag of plt-mine / plt-shard and decode_manifest.
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "kernels/kernels.hpp"
#include "tdb/stats.hpp"
#include "util/common.hpp"

namespace plt::core {

enum class PlanMode {
  kFixed,    ///< the requested algorithm runs as-is (default)
  kAdaptive  ///< the planner picks root + per-subtree strategy and backend
};

const char* plan_name(PlanMode mode);

/// The inverse of plan_name: "fixed" or "adaptive", nullopt for any other
/// name (empty included), so a CLI flag or a manifest can refuse it.
std::optional<PlanMode> parse_plan(std::string_view name);

/// Thresholds of the cost model. Defaults are seeded from the committed
/// crossover benches (see DESIGN.md S25 for the calibration trail); every
/// knob is overridable so tests can force each branch and deployments can
/// re-calibrate without rebuilding.
struct PlanConfig {
  // -- root strategy (the facade's algorithm choice) --
  bool allow_root_eclat = true;
  /// Eclat root, gate one: sparse views keep tidsets short. Density at or
  /// below this hands the whole mine to the vertical baseline.
  double root_eclat_max_density = 0.02;
  /// Eclat root, gate two: a shallow lattice. When the longest *ranked*
  /// transaction fits this cap and the relative threshold is at least
  /// root_eclat_min_minsup_frac, few candidates survive and the vertical
  /// walk skips projection setup entirely (E20: 1.5x on the short-dense
  /// high-support cells; the same cells regress once the threshold falls
  /// and the lattice deepens, hence the frac floor).
  std::size_t root_eclat_max_len = 8;
  double root_eclat_min_minsup_frac = 0.01;

  // -- per-subtree strategy (inside the pooled engine) --
  bool allow_subtree_single_path = true;
  bool allow_subtree_eclat = true;
  /// Tidset subtrees only for small shapes: at most this many conditional
  /// records over at most this many surviving ranks. Seeded tight (the
  /// E20 calibration sweep shows larger shapes regress up to 2x on
  /// short-dense mid-support cells while 8x8 tracks or beats pooled
  /// everywhere measured).
  std::size_t eclat_max_records = 8;
  /// ... over at most this many surviving ranks.
  Rank eclat_max_ranks = 8;
  /// Depth-0 veto: partitions denser than this keep the pooled walk even
  /// for small shapes (near-full tidsets intersect to near-full tidsets,
  /// so the projection arena is the cheaper representation).
  double eclat_max_partition_density = 0.85;

  // -- kernel backend, per data-parallel call --
  /// Calls over fewer u32 words than this take the scalar table
  /// (BENCH_kernels: SIMD needs a few cache lines to amortize setup).
  std::size_t wide_min_positions = 64;
};

/// Per-subtree shape handed to the cost model: everything the engine
/// already knows after peeling + counting one conditional database.
struct SubtreeShape {
  std::size_t records = 0;    ///< conditional-db entries
  std::size_t positions = 0;  ///< peeled positions (arena u32 words)
  Rank child_ranks = 0;       ///< ranks surviving the support filter
  bool single_path = false;   ///< every record maps to the same full vector
};

/// Immutable once configured; shared by reference across parallel workers
/// (decisions are pure functions of shape + config, so plans — and
/// therefore traces — are deterministic and thread-count-invariant).
class Planner {
 public:
  enum class Root { kConditional, kEclat };
  enum class Subtree { kPooled, kSinglePath, kEclat };

  explicit Planner(const PlanConfig& config = {});

  const PlanConfig& config() const { return config_; }

  /// Root strategy from the ranked view's global + per-partition stats.
  Root choose_root(const tdb::Stats& stats,
                   std::span<const tdb::PartitionStats> partitions,
                   Count min_support) const;

  /// Strategy for one conditional subtree.
  Subtree choose_subtree(const SubtreeShape& shape,
                         const tdb::PartitionStats* partition) const;

  /// Whether the single-path probe (an O(positions) scan) is worth
  /// running. For a depth-0 subtree pass its top-level rank: the
  /// partition stats answer in O(1) when every partition at or above the
  /// rank has density 1.0 — then every record the walk can have fed into
  /// CD_rank (original partition members and prefixes reinserted from
  /// higher ranks alike) is the full path, so the subtree is exactly
  /// single-path. Anything else falls back to the scan, which also
  /// catches databases that collapse to one vector only after filtering.
  /// Pass rank 0 for deeper subtrees (no partition identity).
  bool wants_single_path_probe(Rank top_rank,
                               bool* resolved_single_path) const;

  /// Backend choice for one data-parallel call over `words` u32 values:
  /// false = the scalar table, true = the process-active (SIMD) table.
  bool wide_for(std::size_t words) const {
    return words >= config_.wide_min_positions;
  }
  const kernels::Dispatch& dispatch(bool wide) const {
    return wide ? *wide_ : *narrow_;
  }

  /// Hands over the rank-partition stats of the ranked view being mined
  /// (facade only; parallel/OOC engines mine inside a partition and leave
  /// this unset, making shape-only decisions). Depth-0 subtree j of the
  /// walk is CD_j — partition j plus prefixes reinserted from higher
  /// ranks — so the stats are a proxy for its signals and an exact O(1)
  /// single-path witness via the all-full suffix (see planner.cpp).
  void set_partition_stats(std::vector<tdb::PartitionStats> stats);
  /// Stats for top-level rank `j` (null when unknown).
  const tdb::PartitionStats* partition(Rank j) const {
    if (j == 0 || j > partition_stats_.size()) return nullptr;
    return &partition_stats_[j - 1];
  }

 private:
  PlanConfig config_;
  const kernels::Dispatch* narrow_;  ///< scalar reference table
  const kernels::Dispatch* wide_;    ///< process-active table at plan time
  std::vector<tdb::PartitionStats> partition_stats_;
  /// full_suffix_[j-1]: every partition k >= j is all full paths (or
  /// empty), i.e. CD_j is provably single-path without scanning it.
  std::vector<char> full_suffix_;
};

}  // namespace plt::core
