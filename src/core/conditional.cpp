#include "core/conditional.hpp"

#include <algorithm>

namespace plt::core {

ConditionalProjection make_conditional_plt(
    const std::vector<std::pair<PosVec, Count>>& cond, Rank parent_max_rank,
    Count min_support, bool filter_items) {
  ConditionalProjection child;

  // Local support of every parent rank appearing in the conditional db.
  std::vector<Count> support(parent_max_rank, 0);
  for (const auto& [v, freq] : cond) {
    Rank acc = 0;
    for (const Pos p : v) {
      acc += p;
      support[acc - 1] += freq;
    }
  }

  const Count keep_threshold = filter_items ? min_support : 1;
  std::vector<Rank> to_child(parent_max_rank, 0);  // parent rank -> child
  for (Rank r = 1; r <= parent_max_rank; ++r) {
    if (support[r - 1] >= keep_threshold && support[r - 1] > 0) {
      child.to_parent.push_back(r);
      to_child[r - 1] = static_cast<Rank>(child.to_parent.size());
    }
  }
  if (child.to_parent.empty()) return child;

  child.plt = Plt(static_cast<Rank>(child.to_parent.size()));
  PosVec mapped;
  for (const auto& [v, freq] : cond) {
    mapped.clear();
    Rank acc = 0;
    Rank prev_child = 0;
    for (const Pos p : v) {
      acc += p;
      const Rank c = to_child[acc - 1];
      if (c == 0) continue;  // filtered item
      mapped.push_back(c - prev_child);
      prev_child = c;
    }
    if (!mapped.empty()) child.plt.add(mapped, freq);
  }
  return child;
}

std::vector<std::pair<PosVec, Count>> conditional_database(const Plt& plt,
                                                           Rank j) {
  std::vector<std::pair<PosVec, Count>> cond;
  for_each_bucket_prefix(plt, j, [&](std::span<const Pos> prefix, Count freq) {
    cond.emplace_back(PosVec(prefix.begin(), prefix.end()), freq);
  });
  return cond;
}

void mine_plt_conditional_recursive(Plt& plt,
                                    const std::vector<Item>& item_of,
                                    std::vector<Item>& suffix,
                                    Count min_support, const ItemsetSink& sink,
                                    const ConditionalOptions& options) {
  std::vector<std::pair<PosVec, Count>> cond;
  Itemset emitted;
  for (Rank j = plt.max_rank(); j >= 1; --j) {
    if (plt.bucket(j).empty()) continue;
    cond.clear();
    const Count support = for_each_bucket_prefix(
        plt, j, [&](std::span<const Pos> prefix, Count freq) {
          cond.emplace_back(PosVec(prefix.begin(), prefix.end()), freq);
          // Algorithm 3's "Update PLT with V'": lower ranks must see this
          // transaction with item j peeled off.
          plt.add(cond.back().first, freq);
        });
    if (support < min_support) continue;  // anti-monotone cut

    suffix.push_back(item_of[j - 1]);
    emitted = suffix;
    std::sort(emitted.begin(), emitted.end());
    sink(emitted, support);

    if (!cond.empty()) {
      ConditionalProjection child = make_conditional_plt(
          cond, j, min_support, options.filter_conditional_items);
      if (!child.empty()) {
        // Compose the translation: child local rank -> original item.
        std::vector<Item> child_item_of(child.to_parent.size());
        for (std::size_t c = 0; c < child.to_parent.size(); ++c)
          child_item_of[c] = item_of[child.to_parent[c] - 1];
        mine_plt_conditional_recursive(child.plt, child_item_of, suffix,
                                       min_support, sink, options);
      }
    }
    suffix.pop_back();
  }
}

}  // namespace plt::core
