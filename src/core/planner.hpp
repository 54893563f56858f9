// Subtree cost model of the projection engine: picks the mining strategy
// per conditional subtree from that subtree's shape alone, instead of
// trusting one fixed choice for the whole mine. The benches
// (BENCH_adaptive.json) show the winner is predictable from the shape of
// the data — the same observation arXiv 1312.4800 makes for extraction
// time in general — so the measured thresholds become a small cost model:
// single-path expansion when a conditional database collapses to one
// vector (every subset shares one support; no projection needed), tidset
// intersection for small shallow shapes, pooled projection for everything
// else.
//
// The shape bound also fixes the kernel width: a tidset subtree holds at
// most eclat_max_records records, so its intersect calls are too short for
// the choice of kernel backend to matter, and the strategy calls the
// process-active table like every other intersect caller.
//
// The root strategy is not planned: it is the caller's Algorithm
// (Algorithm::kEclat is the vertical root). All subtree strategies agree
// bit-for-bit (DESIGN.md S25 has the emission-order argument), so a
// decision changes time, never output. Every decision is recorded as
// plan.* trace counters so it is auditable after the run.
//
// Every ProjectionEngine runs this model; PlanConfig is only its
// constructor argument, which tests and bench_adaptive use to force one
// strategy. No entry point, manifest or flag sets it.
#pragma once

#include "util/common.hpp"

namespace plt::core {

/// Thresholds of the cost model. Defaults are seeded from the committed
/// crossover benches (see DESIGN.md S25 for the calibration trail).
struct PlanConfig {
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
};

/// Per-subtree shape handed to the cost model: everything the engine
/// already knows after counting one conditional database.
struct SubtreeShape {
  std::size_t records = 0;    ///< conditional-db entries
  Rank child_ranks = 0;       ///< ranks surviving the support filter
  bool single_path = false;   ///< every record maps to the same full vector
};

/// Decisions are pure functions of shape + config, so plans — and
/// therefore traces — are deterministic and thread-count-invariant.
class Planner {
 public:
  enum class Subtree { kPooled, kSinglePath, kEclat };

  explicit Planner(const PlanConfig& config = {}) : config_(config) {}

  const PlanConfig& config() const { return config_; }

  /// Strategy for one conditional subtree.
  Subtree choose_subtree(const SubtreeShape& shape) const;

 private:
  PlanConfig config_;
};

}  // namespace plt::core
