#include "core/queries.hpp"

#include <algorithm>
#include <numeric>

namespace plt::core {

namespace {

// Count itemsets of at least min_length in a result.
std::size_t count_at_length(const FrequentItemsets& itemsets,
                            std::size_t min_length) {
  const std::vector<std::size_t> counts = itemsets.level_counts();
  std::size_t n = 0;
  for (std::size_t len = min_length; len < counts.size(); ++len)
    n += counts[len];
  return n;
}

}  // namespace

FrequentItemsets mine_top_k(const tdb::Database& db, std::size_t k,
                            const TopKOptions& options) {
  FrequentItemsets empty;
  if (k == 0 || db.empty()) return empty;

  // Find the largest threshold t such that mining at t yields >= k
  // itemsets (of the required length), by descending geometric search
  // followed by reuse of the final (complete) result.
  Count threshold = db.size();
  FrequentItemsets mined;
  for (;;) {
    mined = mine(db, threshold, options.algorithm).itemsets;
    if (count_at_length(mined, options.min_length) >= k || threshold == 1)
      break;
    threshold = std::max<Count>(1, threshold / 2);
  }

  // Keep the k best by support (ties at the cut included).
  Itemset scratch;
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < mined.size(); ++i)
    if (mined.itemset(i, scratch).size() >= options.min_length)
      order.push_back(i);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return mined.support(a) > mined.support(b);
  });
  FrequentItemsets top;
  Count cut_support = 0;
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::size_t i = order[rank];
    if (rank < k) {
      cut_support = mined.support(i);
      top.add(mined.itemset(i, scratch), mined.support(i));
    } else if (mined.support(i) == cut_support) {
      top.add(mined.itemset(i, scratch), mined.support(i));  // tie at the cut
    } else {
      break;
    }
  }
  return top;
}

ConstrainedResult mine_containing(const tdb::Database& db, Count min_support,
                                  const Itemset& constraint) {
  ConstrainedResult result;
  PLT_ASSERT(!constraint.empty(), "constraint must be non-empty");
  Itemset sorted_constraint = constraint;
  std::sort(sorted_constraint.begin(), sorted_constraint.end());
  sorted_constraint.erase(
      std::unique(sorted_constraint.begin(), sorted_constraint.end()),
      sorted_constraint.end());

  // Project: transactions containing the whole constraint, minus the
  // constraint items themselves.
  tdb::Database projection;
  Count constraint_support = 0;
  std::vector<Item> row;
  for (std::size_t t = 0; t < db.size(); ++t) {
    const auto items = db[t];
    if (!std::includes(items.begin(), items.end(), sorted_constraint.begin(),
                       sorted_constraint.end()))
      continue;
    ++constraint_support;
    row.clear();
    std::set_difference(items.begin(), items.end(),
                        sorted_constraint.begin(), sorted_constraint.end(),
                        std::back_inserter(row));
    if (!row.empty()) projection.add(row);
  }
  if (constraint_support < min_support) return result;

  result.constraint_support = constraint_support;
  result.itemsets.add(sorted_constraint, constraint_support);

  // Frequent extensions within the projection (support over the full
  // database = support within the projection, since every projected
  // transaction contains the constraint).
  const auto mined =
      mine(projection, min_support, Algorithm::kPltConditional);
  Itemset combined;
  mined.itemsets.for_each([&](std::span<const Item> extension,
                              Count support) {
    combined.clear();
    std::merge(extension.begin(), extension.end(),
               sorted_constraint.begin(), sorted_constraint.end(),
               std::back_inserter(combined));
    result.itemsets.add(combined, support);
  });
  return result;
}

}  // namespace plt::core
