// The allocation-free conditional projection engine. The paper's central
// performance claim (§6) is that conditional mining is cheap because each
// projection is a small flat matrix — but a naive Algorithm 3 spends its
// time allocating those matrices: a fresh Plt (partition arenas, hash
// indexes, sum buckets) plus one heap PosVec per conditional-db entry at
// every recursion node. This engine removes all of that from the steady
// state:
//
//   * FlatCondDb — the conditional database is one contiguous Pos arena
//     plus (offset, len, freq) records; prefixes are peeled exactly once.
//   * a depth-indexed pool of recycled Plt frames — mining is DFS, so at
//     most one projection per depth is live; frame d is reset() (capacity
//     retained) and reused by every node at depth d.
//   * an explicit stack replaces the C++ call stack, so projection state
//     lives in the pool and deep conditional chains cannot overflow.
//
// After warm-up the only allocations are capacity growth on workloads
// bigger than anything seen before — the ProjectionStats counters make
// that visible (and bench_projection_pool records it).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/conditional.hpp"
#include "core/exec_control.hpp"
#include "core/planner.hpp"
#include "core/plt.hpp"

namespace plt::core {

/// Cheap engine counters, surfaced through MineResult and BENCH JSON.
struct ProjectionStats {
  std::uint64_t projections_built = 0;  ///< conditional PLTs constructed
  std::uint64_t entries_projected = 0;  ///< prefixes peeled into flat cond DBs
  /// Frame acquisitions served by recycling an existing pool frame vs by
  /// constructing a new one. The seed recursive path performs one fresh
  /// allocation per projection, so `projections_built - fresh_allocations`
  /// projections stopped paying for construction.
  std::uint64_t recycled_allocations = 0;
  std::uint64_t fresh_allocations = 0;
  std::uint64_t bytes_recycled = 0;  ///< capacity retained across frame reuse
  std::uint64_t bytes_fresh = 0;     ///< capacity newly grown inside frames
  std::uint64_t steals = 0;  ///< work-stealing miner: chunks taken from peers
  // Planner decisions (all zero under PlanMode::kFixed). Subtree counts sum to
  // the number of non-empty conditional databases the planner saw; the
  // narrow/wide pair counts per-call kernel-backend routing.
  std::uint64_t plan_pooled = 0;       ///< subtrees kept on the pooled walk
  std::uint64_t plan_single_path = 0;  ///< subtrees expanded as one path
  std::uint64_t plan_eclat = 0;        ///< subtrees mined by intersection
  std::uint64_t plan_narrow = 0;       ///< calls routed to the scalar table
  std::uint64_t plan_wide = 0;         ///< calls kept on the active table

  void merge(const ProjectionStats& other);
};

/// Flat conditional database: one contiguous Pos arena plus per-entry
/// (offset, len, freq) records — replaces vector<pair<PosVec, Count>> so a
/// whole conditional db costs zero allocations once capacity is warm.
class FlatCondDb {
 public:
  struct Record {
    std::uint32_t offset;
    std::uint32_t len;
    Count freq;
  };

  void clear() {
    arena_.clear();
    records_.clear();
  }
  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }

  /// Appends one prefix; the returned span (into the arena) stays valid
  /// until the next push.
  std::span<const Pos> push(std::span<const Pos> prefix, Count freq) {
    const auto offset = static_cast<std::uint32_t>(arena_.size());
    arena_.insert(arena_.end(), prefix.begin(), prefix.end());
    records_.push_back(
        {offset, static_cast<std::uint32_t>(prefix.size()), freq});
    return {arena_.data() + offset, prefix.size()};
  }

  std::span<const Pos> positions(const Record& r) const {
    return {arena_.data() + r.offset, r.len};
  }
  const std::vector<Record>& records() const { return records_; }
  /// The raw gap arena, all records back to back — the projection engine
  /// peels the whole thing with one kernel call and re-bases per record.
  const std::vector<Pos>& arena() const { return arena_; }

 private:
  std::vector<Pos> arena_;
  std::vector<Record> records_;
};

/// The pooled, iterative Algorithm 3. One engine per thread; reuse it across
/// many mine() calls (the parallel partition miner holds one per worker) so
/// every projection after the first few recycles warm arenas.
class ProjectionEngine {
 public:
  /// Mines `plt` (consumed, same contract as mine_plt_conditional): every
  /// frequent extension of `suffix` is reported through `sink` in original
  /// item ids, exactly like the recursive reference path.
  void mine(Plt& plt, const std::vector<Item>& item_of,
            std::vector<Item>& suffix, Count min_support,
            const ItemsetSink& sink, const ConditionalOptions& options);

  const ProjectionStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Attaches a cooperative control checked once per processed rank (null
  /// detaches). `base_bytes` is added to the engine's own footprint when
  /// reporting memory use against the control's budget (pass the mined
  /// structure's size so the budget sees the whole working set).
  void set_control(const MiningControl* control, std::size_t base_bytes = 0) {
    control_ = control;
    control_base_bytes_ = base_bytes;
  }

  /// True when the last mine() was stopped early by the attached control.
  bool interrupted() const { return interrupted_; }

  /// Attaches the adaptive planner (null = fixed mode, the default): every
  /// non-empty conditional database is then routed to the strategy the
  /// cost model picks — pooled projection (unchanged walk), single-path
  /// expansion, or tidset intersection — and each data-parallel kernel
  /// call is routed to the scalar or SIMD table by input width. All three
  /// strategies emit the exact same itemsets in the exact same order
  /// (DESIGN.md S25), so only time changes. The planner must outlive the
  /// mine; one const planner may be shared across worker engines.
  void set_planner(const Planner* planner) { planner_ = planner; }

  /// Public entry for a subtree proven single-path by an external witness
  /// (the OOC walk's rank-level planner): emits every subset of
  /// items[0..upto) at constant support `freq`, byte-identical — content
  /// and order — to mine() over the equivalent one-path conditional PLT.
  /// Honors the attached control (check interrupted() afterwards).
  void expand_single_path(std::span<const Item> items, Rank upto, Count freq,
                          std::vector<Item>& suffix, const ItemsetSink& sink) {
    interrupted_ = false;
    expand_path(items, upto, freq, suffix, sink);
  }

  /// Heap bytes currently held by the pooled frames and scratch buffers.
  std::size_t memory_usage() const;

 private:
  /// One recycled projection frame: the conditional PLT for a depth plus
  /// its local-rank -> original-item translation.
  struct Frame {
    Plt plt{1};
    std::vector<Item> item_of;
  };

  Frame& acquire(std::size_t depth);
  /// One cooperative control check; memory is re-measured every few ticks
  /// (measuring walks the pool, so it is amortized off the hot path).
  bool check_control();
  /// Peels cond_'s arena with the given kernel table, counts per-parent-
  /// rank support, and compacts the survivors: fills sums_, support_,
  /// to_child_ and `child_items`. Returns the number of surviving ranks.
  Rank peel_and_count(const kernels::Dispatch& kernel, Rank parent_max,
                      Count keep_threshold,
                      const std::vector<Item>& parent_items,
                      std::vector<Item>& child_items);
  /// Builds frame.plt from the peeled + compacted cond_ (sums_/to_child_
  /// as left by peel_and_count; child_ranks must be > 0).
  void build_frame(Frame& frame, Rank child_ranks);
  /// Projects cond_ (vectors over parent ranks 1..parent_max) into `frame`,
  /// filtering and compacting ranks exactly like make_conditional_plt.
  /// Returns false when no rank survives (nothing to mine below).
  bool project_into(Frame& frame, Rank parent_max, Count min_support,
                    bool filter_items, const std::vector<Item>& parent_items);
  /// Adaptive analog of project_into: peels, asks the planner, and either
  /// mines the subtree in place (single-path / Eclat; returns null) or
  /// builds a pooled frame for the caller to push (returns it). Sets
  /// interrupted_ when a control stop fires inside an in-place strategy.
  Frame* planned_project(Rank j, std::size_t depth, Count min_support,
                         const ConditionalOptions& options,
                         const std::vector<Item>& parent_items,
                         std::vector<Item>& suffix, const ItemsetSink& sink);
  /// True when every record keeps all `child_ranks` ranks (one shared
  /// path); reads sums_/to_child_ as left by peel_and_count.
  bool probe_single_path(Rank child_ranks) const;
  /// Emits every subset of items[0..upto) at constant support `freq`, in
  /// the exact order the pooled walk would (rank high to low, DFS).
  void expand_path(std::span<const Item> items, Rank upto, Count freq,
                   std::vector<Item>& suffix, const ItemsetSink& sink);
  /// Mines the peeled cond_ by sorted-tidset intersection (records as
  /// tids, freq-weighted support), emission-order identical to pooling.
  void eclat_mine(Rank child_ranks, Count min_support,
                  std::vector<Item>& suffix, const ItemsetSink& sink);
  void eclat_descend(std::span<const std::uint32_t> tids, Rank below,
                     Count min_support, std::vector<Item>& suffix,
                     const ItemsetSink& sink, std::size_t depth);

  std::vector<std::unique_ptr<Frame>> pool_;  ///< pool_[d] = depth d+1 frame
  FlatCondDb cond_;
  std::vector<Count> support_;  ///< scratch: local support per parent rank
  std::vector<Rank> to_child_;  ///< scratch: parent rank -> child rank
  std::vector<Rank> sums_;      ///< scratch: peeled prefix sums of the arena
  PosVec mapped_;               ///< scratch: one re-mapped child vector
  Itemset emitted_;             ///< scratch: sorted itemset handed to sinks
  // Planned-strategy scratch (only touched when a planner is attached).
  std::vector<Item> planned_items_;  ///< child rank -> original item
  std::vector<std::uint32_t> tid_offsets_;  ///< rank -> tid_arena_ slice
  std::vector<std::uint32_t> tid_cursor_;   ///< fill cursors for the arena
  std::vector<std::uint32_t> tid_arena_;    ///< record ids, per-rank sorted
  std::vector<Count> rec_freq_;             ///< record id -> frequency
  std::vector<std::vector<std::uint32_t>> eclat_pool_;  ///< per-depth tids
  ProjectionStats stats_;
  const Planner* planner_ = nullptr;
  const MiningControl* control_ = nullptr;
  std::size_t control_base_bytes_ = 0;
  std::uint64_t control_tick_ = 0;
  std::size_t last_measured_bytes_ = 0;
  bool interrupted_ = false;
};

}  // namespace plt::core
