// The allocation-free conditional projection engine. The paper's central
// performance claim (§6) is that conditional mining is cheap because each
// projection is a small flat structure — but a naive Algorithm 3 spends
// its time allocating those structures: a fresh Plt (partition arenas,
// hash indexes, sum buckets) plus one heap PosVec per conditional-db entry
// at every recursion node, and re-inserting every peeled prefix into it.
// This engine removes all of that from the steady state:
//
//   * every level mines a physical tree (core/tree_view.hpp): CD_j is the
//     parents' paths of the rank-j nodes, walked up parent links, so
//     Algorithm 3's "Update PLT with V'" re-inserts nothing at any depth;
//   * FlatCondDb — the conditional database is one contiguous rank arena
//     plus (offset, len, freq) records, filled by climbing the tree once;
//   * a depth-indexed pool of recycled tree frames — mining is DFS, so at
//     most one projection per depth is live; frame d is rebuilt in place
//     (capacity retained) by every projection at depth d.
//   * an explicit stack replaces the C++ call stack, so projection state
//     lives in the pool and deep conditional chains cannot overflow;
//   * every emission is one FrequentItemsets::extend of the record it
//     grows (core/itemset_collector.hpp): the suffix is that record's id,
//     so no itemset is copied, sorted or handed to a callback.
//
// After warm-up the only allocations are capacity growth on workloads
// bigger than anything seen before — the ProjectionStats counters make
// that visible (and bench_projection_pool records it). ProjectionStats is
// also the engine's only counter source: each mine_rank() adds what its
// rank counted to the trace once, so a traced mine pays a few counter adds
// per rank, not one per itemset.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "core/conditional.hpp"
#include "core/exec_control.hpp"
#include "core/tree_view.hpp"

namespace plt::core {

/// Cheap engine counters, surfaced through MineResult and BENCH JSON, and
/// the source of the engine's trace counters: mine_rank() adds each rank's
/// ranks_processed, entries_projected, projections_built (as
/// plan.subtree.pooled) and plan_eclat to the trace when it returns.
struct ProjectionStats {
  std::uint64_t ranks_processed = 0;    ///< steps run (one per CD_j read)
  std::uint64_t projections_built = 0;  ///< conditional tree frames built
  std::uint64_t entries_projected = 0;  ///< records read into flat cond DBs
  /// Frame acquisitions served by recycling an existing pool frame vs by
  /// constructing a new one. The seed recursive path performs one fresh
  /// allocation per projection, so `projections_built - fresh_allocations`
  /// projections stopped paying for construction.
  std::uint64_t recycled_allocations = 0;
  std::uint64_t fresh_allocations = 0;
  std::uint64_t bytes_recycled = 0;  ///< capacity retained across frame reuse
  std::uint64_t bytes_fresh = 0;     ///< capacity newly grown inside frames
  std::uint64_t steals = 0;  ///< work-stealing miner: chunks taken from peers
  /// Subtrees mined by tidset intersection. With projections_built (the
  /// pooled subtrees) it sums to the number of conditional databases with
  /// at least one surviving rank.
  std::uint64_t plan_eclat = 0;
  /// Frame rebuilds whose rows did not come in tree order and took the
  /// tree builder's radix distribution, and the rows of those frames.
  std::uint64_t frames_reordered = 0;
  std::uint64_t rows_reordered = 0;

  void merge(const ProjectionStats& other);
};

/// Flat conditional database: one contiguous rank arena plus per-entry
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
  /// Ranks held by all records together.
  std::size_t rank_count() const { return arena_.size(); }

  /// Appends the path from the root to tree node `id` as one record of
  /// ascending ranks, climbing parent links (tree nodes store ranks, so
  /// nothing is peeled), and adds `freq` to support[r-1] for each rank r
  /// on it.
  void push_path(const TreeView& tree, TreeView::NodeId id, Count freq,
                 std::span<Count> support) {
    const auto offset = static_cast<std::uint32_t>(arena_.size());
    for (; id != TreeView::kRoot; id = tree.node(id).parent) {
      const Rank rank = tree.node(id).rank;
      arena_.push_back(rank);
      support[rank - 1] += freq;
    }
    std::reverse(arena_.begin() + offset, arena_.end());
    records_.push_back(
        {offset, static_cast<std::uint32_t>(arena_.size() - offset), freq});
  }

  std::span<const Rank> ranks(const Record& r) const {
    return {arena_.data() + r.offset, r.len};
  }
  const std::vector<Record>& records() const { return records_; }

  std::size_t memory_usage() const {
    return arena_.capacity() * sizeof(Rank) +
           records_.capacity() * sizeof(Record);
  }

 private:
  std::vector<Rank> arena_;
  std::vector<Record> records_;
};

/// The pooled, iterative Algorithm 3. One engine per thread; reuse it across
/// many mine() calls (the parallel partition miner holds one per worker) so
/// every projection after the first few recycles warm arrays.
///
/// Every conditional database with a surviving rank is mined one of two
/// ways, fixed by its shape: tidset intersection when it holds at most 8
/// records over at most 8 surviving ranks, pooled projection otherwise.
/// Both emit the exact same itemsets in the exact same order (DESIGN.md
/// S25), so only time changes.
class ProjectionEngine {
 public:
  /// Algorithm 3 over the physical tree: mine_rank() for every rank from
  /// tree.max_rank() down to 1. Tree rank r reports as `item_of[r-1]`;
  /// every frequent itemset is appended to `out` in the recursive
  /// reference path's exact order. The tree is only read.
  void mine(const TreeView& tree, const std::vector<Item>& item_of,
            Count min_support, FrequentItemsets& out,
            const ConditionalOptions& options);

  /// One top-level step of Algorithm 3 for rank `j`: fills CD_j from the
  /// rank-j nodes (support({j}) is their support total), appends {j} to
  /// `out` as a root record when frequent, projects CD_j into a pooled
  /// frame and mines it with the same step at every depth, each emission
  /// one `extend` of the record it grows. Steps of different ranks are
  /// independent, so workers of mine_parallel each run theirs into a block
  /// of their own against one shared tree, and mine_from_blob runs only the
  /// ranks of its window. On return it adds the rank's events to the
  /// innermost open span: the growth of `out` as itemsets-emitted and the
  /// growth of stats() as the engine counters.
  void mine_rank(const TreeView& tree, Rank j,
                 const std::vector<Item>& item_of, Count min_support,
                 FrequentItemsets& out, const ConditionalOptions& options);

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

  /// True when the last mine() or mine_rank() was stopped early by the
  /// attached control.
  bool interrupted() const { return interrupted_; }

  /// Heap bytes currently held by the pooled frames, the conditional
  /// database (whose largest fill is a top-level CD_j) and scratch buffers.
  std::size_t memory_usage() const;

 private:
  /// One recycled projection frame: the conditional tree for a depth plus
  /// its local-rank -> original-item translation.
  struct Frame {
    TreeView tree{1};
    std::vector<Item> item_of;
  };
  /// One level of the explicit stack: the tree it mines, its rank -> item
  /// translation, the rank it processes next, and the record of the
  /// itemset its emissions extend (the suffix, held as one record id).
  struct Level {
    const TreeView* tree;
    const std::vector<Item>* items;
    Rank j;
    std::uint32_t record;
  };

  /// Mines the levels on stack_ until it is empty; their frames sit at pool
  /// depths 0 and below. On a control stop it drops the live levels and
  /// sets interrupted_.
  void walk(Count min_support, FrequentItemsets& out,
            const ConditionalOptions& options);
  /// Algorithm 3's step for rank `j` of `tree`, the same at every depth:
  /// fills cond_ with CD_j read off the rank-j nodes' parent links and
  /// support_ with its per-rank supports, applies the anti-monotone cut,
  /// emits record(parent) ∪ {items[j-1]} with one out.extend, and projects
  /// CD_j. A pooled frame (built at `depth`) is pushed on stack_ as a level
  /// extending the new record; an intersected subtree emits on the spot.
  void step(const TreeView& tree, Rank j, std::size_t depth,
            const std::vector<Item>& items, std::uint32_t parent,
            Count min_support, FrequentItemsets& out,
            const ConditionalOptions& options);
  Frame& acquire(std::size_t depth);
  /// One cooperative control check; memory is re-measured every few ticks
  /// (measuring walks the pool, so it is amortized off the hot path).
  bool check_control();
  /// Compacts the parent ranks whose support_ (as step() left it) passes
  /// `keep_threshold`: fills to_child_ and child_items_. Returns the
  /// number of surviving ranks.
  Rank compact_ranks(Rank parent_max, Count keep_threshold,
                     const std::vector<Item>& parent_items);
  /// Rebuilds frame.tree from cond_'s records mapped through to_child_
  /// (as left by compact_ranks; child_ranks must be > 0).
  void build_frame(Frame& frame, Rank child_ranks);
  /// Compacts CD_j's surviving ranks (cond_, rank lists over parent ranks
  /// 1..j, counted in support_) and either mines a small subtree in place
  /// by intersection (returns null) or builds a pooled frame at `depth`
  /// for the caller to push (returns it). Ranks are filtered and compacted
  /// exactly like make_conditional_plt. Returns null when no rank
  /// survives, and sets interrupted_ when a control stop fires inside the
  /// intersection.
  Frame* project(Rank j, std::size_t depth, Count min_support,
                 const ConditionalOptions& options,
                 const std::vector<Item>& parent_items, std::uint32_t parent,
                 FrequentItemsets& out);
  /// Mines cond_ by sorted-tidset intersection (records as tids,
  /// freq-weighted support), emission-order identical to pooling.
  void eclat_mine(Rank child_ranks, Count min_support, std::uint32_t parent,
                  FrequentItemsets& out);
  void eclat_descend(std::span<const std::uint32_t> tids, Rank below,
                     Count min_support, std::uint32_t parent,
                     FrequentItemsets& out, std::size_t depth);

  std::vector<std::unique_ptr<Frame>> pool_;  ///< pool_[d] = depth d+1 frame
  std::vector<Level> stack_;                  ///< walk()'s explicit stack
  FlatCondDb cond_;
  std::vector<Count> support_;  ///< scratch: CD_j's support per parent rank
  std::vector<Rank> to_child_;  ///< scratch: parent rank -> child rank
  TreeView::Rows rows_;         ///< scratch: cond_ in child ranks
  std::vector<Item> child_items_;  ///< scratch: child rank -> original item
  std::vector<std::uint32_t> tid_offsets_;  ///< rank -> tid_arena_ slice
  std::vector<std::uint32_t> tid_cursor_;   ///< fill cursors for the arena
  std::vector<std::uint32_t> tid_arena_;    ///< record ids, per-rank sorted
  std::vector<Count> rec_freq_;             ///< record id -> frequency
  std::vector<std::vector<std::uint32_t>> eclat_pool_;  ///< per-depth tids
  ProjectionStats stats_;
  const MiningControl* control_ = nullptr;
  std::size_t control_base_bytes_ = 0;
  std::uint64_t control_tick_ = 0;
  std::size_t last_measured_bytes_ = 0;
  bool interrupted_ = false;
};

}  // namespace plt::core
