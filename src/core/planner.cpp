// Plan-mode selection mirrors kernels/dispatch.cpp: one atomic holding
// the process-wide mode, the PLT_PLAN environment variable resolved at
// first use, and named selection that refuses unknown names. The cost
// model itself lives in Planner — pure functions of (config, stats,
// shape), so a plan is reproducible from the trace counters it leaves.
#include "core/planner.hpp"

#include <atomic>
#include <cstdlib>

namespace plt::core {

namespace {

constexpr int kUnset = -1;

std::atomic<int> g_mode{kUnset};

int resolve_default() {
  if (const char* env = std::getenv("PLT_PLAN")) {
    const std::string name(env);
    if (name == "adaptive") return static_cast<int>(PlanMode::kAdaptive);
    // Unknown or "fixed" in the environment: fixed, never fail a process
    // that did not ask for planning.
  }
  return static_cast<int>(PlanMode::kFixed);
}

int load_mode() {
  int mode = g_mode.load(std::memory_order_acquire);
  if (mode == kUnset) {
    const int resolved = resolve_default();
    if (g_mode.compare_exchange_strong(mode, resolved,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire))
      mode = resolved;  // first resolver published; losers use what they read
  }
  return mode;
}

}  // namespace

const char* plan_name(PlanMode mode) {
  switch (mode) {
    case PlanMode::kFixed: return "fixed";
    case PlanMode::kAdaptive: return "adaptive";
  }
  return "?";
}

bool select_plan(const std::string& name) {
  if (name.empty()) return true;  // keep the current selection
  PlanMode mode;
  if (name == "fixed") {
    mode = PlanMode::kFixed;
  } else if (name == "adaptive") {
    mode = PlanMode::kAdaptive;
  } else {
    return false;
  }
  g_mode.store(static_cast<int>(mode), std::memory_order_release);
  return true;
}

PlanMode active_plan() { return static_cast<PlanMode>(load_mode()); }

Planner::Planner(const PlanConfig& config)
    : config_(config),
      narrow_(&kernels::scalar_dispatch()),
      wide_(&kernels::active()) {}

Planner::Root Planner::choose_root(
    const tdb::Stats& stats, std::span<const tdb::PartitionStats> partitions,
    Count min_support) const {
  if (stats.transactions == 0) return Root::kConditional;
  const double frac = static_cast<double>(min_support) /
                      static_cast<double>(stats.transactions);
  // Vertical mining keeps one tidset per item; on sparse views those stay
  // short and intersections (a SIMD kernel) beat repeated projection. The
  // mass-weighted partition density is the sharper sparsity signal: the
  // global figure dilutes dense pockets that projection handles well.
  if (config_.allow_root_eclat) {
    double mass = 0.0;
    double weighted = 0.0;
    for (const tdb::PartitionStats& p : partitions) {
      const auto t = static_cast<double>(p.transactions);
      mass += t;
      weighted += t * p.density;
    }
    const double partition_density = mass > 0.0 ? weighted / mass : 0.0;
    if (stats.density <= config_.root_eclat_max_density &&
        partition_density <= config_.root_eclat_max_density)
      return Root::kEclat;
    // Gate two — shallow lattice: short ranked transactions at a high
    // threshold leave few surviving candidates, and the vertical walk
    // skips all projection setup for them.
    if (stats.max_len <= config_.root_eclat_max_len &&
        frac >= config_.root_eclat_min_minsup_frac)
      return Root::kEclat;
  }
  return Root::kConditional;
}

Planner::Subtree Planner::choose_subtree(
    const SubtreeShape& shape, const tdb::PartitionStats* partition) const {
  // A single-path conditional database needs no structure at all: every
  // subset of the path shares the database's total frequency, so direct
  // expansion replaces the entire subtree's projections.
  if (config_.allow_subtree_single_path && shape.single_path)
    return Subtree::kSinglePath;
  if (config_.allow_subtree_eclat &&
      shape.records <= config_.eclat_max_records &&
      shape.child_ranks <= config_.eclat_max_ranks) {
    // Depth-0 veto from the partition stats: dense partitions intersect
    // near-full tidsets into near-full tidsets, so the flat projection
    // arena is the cheaper representation there.
    if (partition != nullptr &&
        partition->density > config_.eclat_max_partition_density)
      return Subtree::kPooled;
    return Subtree::kEclat;
  }
  return Subtree::kPooled;
}

void Planner::set_partition_stats(std::vector<tdb::PartitionStats> stats) {
  partition_stats_ = std::move(stats);
  // full_suffix_[j-1] says CD_j is provably one shared path: every
  // partition at or above j holds only full paths (density exactly 1.0 —
  // the division is exact there — or no transactions at all). A full path
  // reinserts as a full path one rank down, so by induction every record
  // reaching CD_j is {1..j-1}. Partial partitions anywhere above poison
  // the whole suffix, hence the suffix-and scan.
  full_suffix_.assign(partition_stats_.size(), 0);
  bool all_full = true;
  for (std::size_t j = partition_stats_.size(); j >= 1; --j) {
    const tdb::PartitionStats& p = partition_stats_[j - 1];
    all_full = all_full && (p.transactions == 0 || p.density >= 1.0);
    full_suffix_[j - 1] = all_full ? 1 : 0;
  }
}

bool Planner::wants_single_path_probe(Rank top_rank,
                                      bool* resolved_single_path) const {
  *resolved_single_path = false;
  if (!config_.allow_subtree_single_path) return false;
  if (top_rank == 0 || top_rank > full_suffix_.size()) return true;
  if (full_suffix_[top_rank - 1] != 0) {
    *resolved_single_path = true;
    return false;
  }
  return true;
}

}  // namespace plt::core
