#include "core/projection_pool.hpp"

#include <algorithm>

#include "kernels/kernels.hpp"
#include "obs/trace.hpp"

namespace plt::core {

namespace {

// A conditional database of at most this many records over at most this
// many surviving ranks is mined by tidset intersection, anything larger
// by pooled projection. Both bounds come from E20's calibration sweep:
// 8 x 8 tracked or beat pooled projection on every cell measured, while
// larger shapes regressed up to 2x on short-dense mid-support cells.
constexpr std::size_t kEclatMaxRecords = 8;
constexpr Rank kEclatMaxRanks = 8;

}  // namespace

void ProjectionStats::merge(const ProjectionStats& other) {
  ranks_processed += other.ranks_processed;
  projections_built += other.projections_built;
  entries_projected += other.entries_projected;
  recycled_allocations += other.recycled_allocations;
  fresh_allocations += other.fresh_allocations;
  bytes_recycled += other.bytes_recycled;
  bytes_fresh += other.bytes_fresh;
  steals += other.steals;
  plan_eclat += other.plan_eclat;
  frames_reordered += other.frames_reordered;
  rows_reordered += other.rows_reordered;
}

bool ProjectionEngine::check_control() {
  // Ranks process in ~hundreds of nanoseconds, so even one relaxed atomic
  // load per rank shows up against the 2% overhead target. Amortize the
  // whole check (cancel flag, deadline clock read, budget) across 16
  // ranks: the stop latency stays in the microseconds.
  if ((control_tick_++ & 15u) != 0) return false;
  // Budget checks need a byte figure; memory_usage() walks the pool, so
  // refresh it sparsely and reuse the last measurement between.
  if (control_->memory_budget() != 0 && (control_tick_ & 255u) == 1)
    last_measured_bytes_ = memory_usage();
  return control_->should_stop(control_base_bytes_ + last_measured_bytes_);
}

ProjectionEngine::Frame& ProjectionEngine::acquire(std::size_t depth) {
  if (depth >= pool_.size()) {
    pool_.push_back(std::make_unique<Frame>());
    ++stats_.fresh_allocations;
  } else {
    ++stats_.recycled_allocations;
  }
  return *pool_[depth];
}

Rank ProjectionEngine::compact_ranks(Rank parent_max, Count keep_threshold,
                                     const std::vector<Item>& parent_items) {
  to_child_.assign(parent_max, 0);
  child_items_.clear();
  Rank child_ranks = 0;
  for (Rank r = 1; r <= parent_max; ++r) {
    if (support_[r - 1] >= keep_threshold && support_[r - 1] > 0) {
      to_child_[r - 1] = ++child_ranks;
      child_items_.push_back(parent_items[r - 1]);
    }
  }
  return child_ranks;
}

void ProjectionEngine::build_frame(Frame& frame, Rank child_ranks) {
  // Each record becomes one row of surviving child ranks (the map is
  // monotone, so rows stay ascending); a record with none left adds no
  // row, and one that repeats the row before it (the two differed only in
  // filtered ranks) adds its weight to that row. Every rank is written and
  // only a surviving one advances the cursor, so the map takes no branch;
  // the rows never outgrow cond_'s ranks. The frame's tree is then rebuilt
  // in place from those rows.
  rows_.clear();
  rows_.ranks.resize(cond_.rank_count());
  Rank* const out = rows_.ranks.data();
  std::size_t n = 0;
  for (const FlatCondDb::Record& rec : cond_.records()) {
    const std::size_t begin = n;
    for (const Rank r : cond_.ranks(rec)) {
      const Rank c = to_child_[r - 1];
      out[n] = c;
      n += c != 0 ? 1 : 0;
    }
    if (n == begin) continue;  // every rank filtered
    if (const std::size_t rows = rows_.size(); rows > 0) {
      const std::size_t last = rows_.start[rows - 1];
      if (std::equal(out + last, out + begin, out + begin, out + n)) {
        n = begin;
        rows_.weights.back() += rec.freq;
        continue;
      }
    }
    rows_.start.push_back(n);
    rows_.weights.push_back(rec.freq);
  }
  rows_.ranks.resize(n);
  const std::size_t retained = frame.tree.memory_usage();
  stats_.bytes_recycled += retained;
  if (frame.tree.rebuild(rows_, child_ranks, "ProjectionEngine frame")) {
    ++stats_.frames_reordered;
    stats_.rows_reordered += rows_.size();
  }
  ++stats_.projections_built;
  const std::size_t now = frame.tree.memory_usage();
  if (now > retained) stats_.bytes_fresh += now - retained;
}

void ProjectionEngine::eclat_mine(Rank child_ranks, Count min_support,
                                  std::uint32_t parent,
                                  FrequentItemsets& out) {
  // Vertical view of cond_: per child rank, the sorted list of record ids
  // containing it (a counting sort over the arena), weighted by record
  // frequency. Small shallow shapes intersect faster than they
  // re-project — project() only routes those here.
  const std::vector<FlatCondDb::Record>& records = cond_.records();
  tid_offsets_.assign(child_ranks + 1, 0);
  for (const FlatCondDb::Record& rec : records)
    for (const Rank r : cond_.ranks(rec))
      if (const Rank c = to_child_[r - 1]; c != 0) ++tid_offsets_[c];
  for (Rank c = 1; c <= child_ranks; ++c) tid_offsets_[c] += tid_offsets_[c - 1];
  tid_cursor_.assign(tid_offsets_.begin(), tid_offsets_.end());
  tid_arena_.resize(tid_offsets_[child_ranks]);
  rec_freq_.resize(records.size());
  for (std::uint32_t t = 0; t < records.size(); ++t) {
    rec_freq_[t] = records[t].freq;
    for (const Rank r : cond_.ranks(records[t]))
      if (const Rank c = to_child_[r - 1]; c != 0)
        tid_arena_[tid_cursor_[c - 1]++] = t;
  }
  eclat_descend({}, child_ranks, min_support, parent, out, 0);
}

void ProjectionEngine::eclat_descend(std::span<const std::uint32_t> tids,
                                     Rank below, Count min_support,
                                     std::uint32_t parent,
                                     FrequentItemsets& out,
                                     std::size_t depth) {
  // DFS over child ranks high to low — the same visit order as the pooled
  // walk, and the bucket mass it computes there equals the freq-weighted
  // tidset cardinality here, so emissions match item for item.
  for (Rank i = below; i >= 1; --i) {
    if (control_ != nullptr && check_control()) {
      interrupted_ = true;
      return;
    }
    const std::span<const std::uint32_t> base{
        tid_arena_.data() + tid_offsets_[i - 1],
        static_cast<std::size_t>(tid_offsets_[i] - tid_offsets_[i - 1])};
    std::span<const std::uint32_t> set;
    if (tids.data() == nullptr) {
      set = base;  // root level: the rank's own tidlist
    } else {
      if (depth >= eclat_pool_.size()) eclat_pool_.resize(depth + 1);
      std::vector<std::uint32_t>& common = eclat_pool_[depth];
      common.resize(std::min(tids.size(), base.size()) + 4);
      const std::size_t n = kernels::active().intersect_sorted(
          tids.data(), tids.size(), base.data(), base.size(), common.data());
      obs::count_kernel("kernel.intersect_sorted.calls",
                        "kernel.intersect_sorted.bytes",
                        (tids.size() + base.size()) * sizeof(std::uint32_t));
      set = {common.data(), n};
    }
    Count support = 0;
    for (const std::uint32_t t : set) support += rec_freq_[t];
    if (support < min_support) continue;
    const std::uint32_t id = out.extend(parent, child_items_[i - 1], support);
    if (i > 1) eclat_descend(set, i - 1, min_support, id, out, depth + 1);
    if (interrupted_) return;
  }
}

ProjectionEngine::Frame* ProjectionEngine::project(
    Rank j, std::size_t depth, Count min_support,
    const ConditionalOptions& options, const std::vector<Item>& parent_items,
    std::uint32_t parent, FrequentItemsets& out) {
  PLT_SPAN("projection");
  const Count keep_threshold =
      options.filter_conditional_items ? min_support : 1;
  const Rank child_ranks = compact_ranks(j, keep_threshold, parent_items);
  if (child_ranks == 0) return nullptr;

  if (cond_.size() <= kEclatMaxRecords && child_ranks <= kEclatMaxRanks) {
    ++stats_.plan_eclat;
    eclat_mine(child_ranks, min_support, parent, out);
    return nullptr;
  }
  Frame& frame = acquire(depth);
  frame.item_of.assign(child_items_.begin(), child_items_.end());
  build_frame(frame, child_ranks);
  return &frame;
}

void ProjectionEngine::step(const TreeView& tree, Rank j, std::size_t depth,
                            const std::vector<Item>& items,
                            std::uint32_t parent, Count min_support,
                            FrequentItemsets& out,
                            const ConditionalOptions& options) {
  const std::span<const TreeView::NodeId> nodes = tree.bucket(j);
  if (nodes.empty()) return;

  // CD_j: the path of every rank-j node's parent, weighted by the node's
  // support, counted per rank on the way up. The tree never changes, so
  // lower ranks already see each of these rows without j — the paper's
  // re-insert is the parent link.
  cond_.clear();
  support_.assign(j, 0);
  Count support = 0;
  for (const TreeView::NodeId id : nodes) {
    const Count freq = tree.support(id);
    support += freq;
    if (const TreeView::NodeId up = tree.node(id).parent;
        up != TreeView::kRoot)
      cond_.push_path(tree, up, freq, support_);
  }
  ++stats_.ranks_processed;
  stats_.entries_projected += cond_.size();
  if (support < min_support) return;  // anti-monotone cut

  const std::uint32_t id = out.extend(parent, items[j - 1], support);
  if (cond_.empty()) return;
  if (Frame* child =
          project(j, depth, min_support, options, items, id, out))
    stack_.push_back(
        {&child->tree, &child->item_of, child->tree.max_rank(), id});
}

void ProjectionEngine::walk(Count min_support, FrequentItemsets& out,
                            const ConditionalOptions& options) {
  // One level per projection depth, all pointing into the pool; level d
  // projects into the frame at depth d + 1, which no live level reads. `j`
  // is the rank the level will process next (Algorithm 3 walks ranks high
  // to low).
  std::vector<Level>& stack = stack_;
  while (!stack.empty()) {
    if (interrupted_ || (control_ != nullptr && check_control())) {
      // A control stop, here or inside the last step's intersection: drop
      // the live levels and leave the records already emitted in `out`.
      interrupted_ = true;
      stack.clear();
      return;
    }
    Level& top = stack.back();
    if (top.j == 0) {
      stack.pop_back();
      continue;
    }
    const Rank j = top.j--;
    step(*top.tree, j, stack.size(), *top.items, top.record, min_support,
         out, options);
  }
}

void ProjectionEngine::mine_rank(const TreeView& tree, Rank j,
                                 const std::vector<Item>& item_of,
                                 Count min_support, FrequentItemsets& out,
                                 const ConditionalOptions& options) {
  interrupted_ = false;
  if (control_ != nullptr && check_control()) {
    interrupted_ = true;
    return;
  }
  const ProjectionStats before = stats_;
  const std::size_t emitted = out.size();
  stack_.clear();
  step(tree, j, 0, item_of, FrequentItemsets::kNoParent, min_support, out,
       options);
  walk(min_support, out, options);

  // The rank's events, added to the innermost open span once: one add per
  // itemset or step would cost a trace lookup each. A zero adds nothing.
  if (const std::uint64_t n = out.size() - emitted; n != 0)
    PLT_TRACE_COUNT("itemsets-emitted", n);
  if (const std::uint64_t n = stats_.ranks_processed - before.ranks_processed;
      n != 0)
    PLT_TRACE_COUNT("ranks-processed", n);
  if (const std::uint64_t n =
          stats_.entries_projected - before.entries_projected;
      n != 0)
    PLT_TRACE_COUNT("entries-projected", n);
  if (const std::uint64_t n =
          stats_.projections_built - before.projections_built;
      n != 0)
    PLT_TRACE_COUNT("plan.subtree.pooled", n);
  if (const std::uint64_t n = stats_.plan_eclat - before.plan_eclat; n != 0)
    PLT_TRACE_COUNT("plan.subtree.eclat", n);
}

void ProjectionEngine::mine(const TreeView& tree,
                            const std::vector<Item>& item_of,
                            Count min_support, FrequentItemsets& out,
                            const ConditionalOptions& options) {
  // One span for the whole rank loop (the walk's explicit stack interleaves
  // depths, so per-node RAII spans cannot nest here). Each mine_rank adds
  // its counters to it; projection time is the "projection" span's.
  PLT_SPAN("rank-loop");
  interrupted_ = false;
  for (Rank j = tree.max_rank(); j >= 1 && !interrupted_; --j)
    mine_rank(tree, j, item_of, min_support, out, options);
}

std::size_t ProjectionEngine::memory_usage() const {
  std::size_t bytes = 0;
  for (const auto& frame : pool_)
    bytes += frame->tree.memory_usage() +
             frame->item_of.capacity() * sizeof(Item);
  bytes += cond_.memory_usage() + stack_.capacity() * sizeof(Level);
  bytes += support_.capacity() * sizeof(Count) +
           to_child_.capacity() * sizeof(Rank) +
           rows_.ranks.capacity() * sizeof(Rank) +
           rows_.start.capacity() * sizeof(std::size_t) +
           rows_.weights.capacity() * sizeof(Count);
  bytes += child_items_.capacity() * sizeof(Item) +
           tid_offsets_.capacity() * sizeof(std::uint32_t) +
           tid_cursor_.capacity() * sizeof(std::uint32_t) +
           tid_arena_.capacity() * sizeof(std::uint32_t) +
           rec_freq_.capacity() * sizeof(Count);
  for (const std::vector<std::uint32_t>& tids : eclat_pool_)
    bytes += tids.capacity() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace plt::core
