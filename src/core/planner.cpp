// The cost model lives in Planner — pure functions of (config, shape), so
// a plan is reproducible from the trace counters it leaves.
#include "core/planner.hpp"

namespace plt::core {

Planner::Subtree Planner::choose_subtree(const SubtreeShape& shape) const {
  // A single-path conditional database needs no structure at all: every
  // subset of the path shares the database's total frequency, so direct
  // expansion replaces the entire subtree's projections.
  if (config_.allow_subtree_single_path && shape.single_path)
    return Subtree::kSinglePath;
  if (config_.allow_subtree_eclat &&
      shape.records <= config_.eclat_max_records &&
      shape.child_ranks <= config_.eclat_max_ranks)
    return Subtree::kEclat;
  return Subtree::kPooled;
}

}  // namespace plt::core
