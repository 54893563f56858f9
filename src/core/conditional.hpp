// The conditional approach (§5.1, Algorithm 3): pattern-growth mining over
// the PLT. Ranks are processed high to low; the entries whose vector sum
// equals rank j are exactly the projected transactions whose highest item is
// j, so support(suffix ∪ {j}) is the frequency mass of bucket j. Lower ranks
// must then see each such transaction without j: in the table form the
// entry's prefix is re-inserted into the working PLT, while in the physical
// tree that the projection engine mines at every depth
// (core/tree_view.hpp, core/projection_pool.hpp) the prefix is the node's
// parent, so nothing is re-inserted. When the extension is frequent, the
// prefixes also form j's conditional PLT, which is mined recursively. The
// anti-monotone property is fully exploited: infrequent extensions
// terminate their branch, and conditional databases are filtered to
// locally-frequent items.
#pragma once

#include "core/itemset_collector.hpp"
#include "core/plt.hpp"
#include "core/rank.hpp"

namespace plt::core {

struct ConditionalOptions {
  /// Filter locally-infrequent items when building conditional PLTs
  /// (on = the full anti-monotone optimization; off = paper's literal
  /// Algorithm 3, still correct but slower). Ablated in benches.
  bool filter_conditional_items = true;
};

/// The original recursive Algorithm 3 over the table form: mines `plt`
/// (consumed — prefixes are re-inserted) whose local rank r reports as
/// original item `item_of[r-1]`, with `suffix` (original item ids) already
/// fixed, building a fresh conditional PLT (new arenas, hash indexes, sum
/// buckets) at every recursion node. Kept as the reference implementation:
/// differential tests and the E17 bench pin the pooled engine (see
/// core/projection_pool.hpp) against it.
void mine_plt_conditional_recursive(Plt& plt,
                                    const std::vector<Item>& item_of,
                                    std::vector<Item>& suffix,
                                    Count min_support, const ItemsetSink& sink,
                                    const ConditionalOptions& options);

/// The one table-form bucket traversal behind Algorithm 3's "extract CD_j"
/// step, shared by conditional_database() and the recursive reference
/// miner (the pooled engine reads CD_j off tree parent links instead):
/// visits the prefix of every projectable entry of bucket `j` (length > 1,
/// freq > 0) and returns the bucket's total frequency mass, which is
/// support(suffix ∪ {j}).
template <typename Fn>  // Fn(std::span<const Pos> prefix, Count freq)
Count for_each_bucket_prefix(const Plt& plt, Rank j, Fn&& fn) {
  Count support = 0;
  for (const Plt::Ref ref : plt.bucket(j)) {
    const auto& e = plt.entry(ref);
    support += e.freq;
    if (ref.length > 1 && e.freq > 0) {
      const auto v = plt.positions(ref);
      fn(v.first(v.size() - 1), e.freq);
    }
  }
  return support;
}

/// A conditional PLT plus the translation from its compact local ranks back
/// to the parent's ranks.
struct ConditionalProjection {
  Plt plt{1};
  std::vector<Rank> to_parent;  ///< local rank r -> parent rank

  bool empty() const { return to_parent.empty(); }
};

/// Builds the conditional PLT for an extracted conditional database
/// (vectors over parent ranks < parent_max_rank), filtering ranks whose
/// local support is below `min_support` when `filter_items` is set, and
/// compacting the survivors to ranks 1..m.
ConditionalProjection make_conditional_plt(
    const std::vector<std::pair<PosVec, Count>>& cond, Rank parent_max_rank,
    Count min_support, bool filter_items);

/// Builds item j's conditional database from a PLT snapshot *without*
/// mutating it — returns the (prefix vector, freq) list whose sums < j.
/// Exposed for the paper-artifact bench (Figure 5) and tests.
std::vector<std::pair<PosVec, Count>> conditional_database(const Plt& plt,
                                                           Rank j);

}  // namespace plt::core
