#include "core/fup.hpp"

#include <algorithm>
#include <unordered_map>

#include "baselines/counting.hpp"

namespace plt::core {

namespace {

struct ItemsetHash {
  std::size_t operator()(const Itemset& s) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Item i : s) {
      h ^= i;
      h *= 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

using SupportMap = std::unordered_map<Itemset, Count, ItemsetHash>;

// Apriori join over the new frequent (k-1)-level (sorted itemsets), pruned
// by the all-subsets-frequent test against the same level.
std::vector<Itemset> join_level(const std::vector<Itemset>& level) {
  std::vector<Itemset> candidates;
  std::unordered_map<Itemset, bool, ItemsetHash> in_level;
  in_level.reserve(level.size() * 2);
  for (const Itemset& z : level) in_level.emplace(z, true);

  Itemset probe;
  for (std::size_t a = 0; a < level.size(); ++a) {
    for (std::size_t b = a + 1; b < level.size(); ++b) {
      if (!std::equal(level[a].begin(), level[a].end() - 1,
                      level[b].begin()))
        break;
      Itemset candidate = level[a];
      candidate.push_back(level[b].back());
      bool keep = true;
      for (std::size_t drop = 0; drop + 2 < candidate.size() && keep;
           ++drop) {
        probe.clear();
        for (std::size_t j = 0; j < candidate.size(); ++j)
          if (j != drop) probe.push_back(candidate[j]);
        keep = in_level.count(probe) > 0;
      }
      if (keep) candidates.push_back(std::move(candidate));
    }
  }
  return candidates;
}

}  // namespace

FupResult fup_update(const tdb::Database& old_db,
                     const FrequentItemsets& old_frequent,
                     Count old_min_support, const tdb::Database& delta,
                     Count new_min_support) {
  PLT_ASSERT(new_min_support >= old_min_support,
             "FUP requires a non-decreasing threshold");
  FupResult result;

  // Old result as a lookup: itemset -> old count.
  SupportMap old_support;
  old_support.reserve(old_frequent.size() * 2);
  std::size_t old_max_len = 0;
  for (std::size_t i = 0; i < old_frequent.size(); ++i) {
    Itemset z = old_frequent.itemset(i);
    old_max_len = std::max(old_max_len, z.size());
    old_support.emplace(std::move(z), old_frequent.support(i));
  }

  // An absent itemset had old count < old_min_support, so it needs at
  // least this many delta occurrences to reach the new threshold.
  const Count loser_threshold =
      new_min_support - old_min_support + 1;

  // Level 1 candidates: every item of either database.
  std::vector<Itemset> level_candidates;
  {
    std::vector<Count> seen(
        std::max<std::size_t>(old_db.max_item(), delta.max_item()) + 1, 0);
    const auto mark = [&](const tdb::Database& db) {
      for (std::size_t t = 0; t < db.size(); ++t)
        for (const Item item : db[t]) seen[item] = 1;
    };
    mark(old_db);
    mark(delta);
    for (Item i = 0; i < seen.size(); ++i)
      if (seen[i]) level_candidates.push_back({i});
  }

  std::vector<Itemset> new_level;  // frequent itemsets of this level
  for (std::size_t k = 1; !level_candidates.empty(); ++k) {
    // Count every candidate on the delta (one pass).
    const auto delta_counts =
        baselines::count_supports(delta, level_candidates);

    // Split into winners (old count known) and losers needing a rescan.
    std::vector<Itemset> rescan;
    std::vector<std::size_t> rescan_index;
    std::vector<Count> totals(level_candidates.size(), 0);
    std::vector<bool> viable(level_candidates.size(), false);
    for (std::size_t c = 0; c < level_candidates.size(); ++c) {
      const auto it = old_support.find(level_candidates[c]);
      if (it != old_support.end()) {
        ++result.winner_candidates;
        totals[c] = it->second + delta_counts[c];
        viable[c] = true;
      } else {
        ++result.loser_candidates;
        if (delta_counts[c] >= loser_threshold) {
          rescan.push_back(level_candidates[c]);
          rescan_index.push_back(c);
        }
      }
    }
    if (!rescan.empty()) {
      const auto old_counts = baselines::count_supports(old_db, rescan);
      ++result.old_db_passes;
      result.rescanned += rescan.size();
      for (std::size_t r = 0; r < rescan.size(); ++r) {
        const std::size_t c = rescan_index[r];
        totals[c] = old_counts[r] + delta_counts[c];
        viable[c] = true;
      }
    }

    new_level.clear();
    for (std::size_t c = 0; c < level_candidates.size(); ++c) {
      if (!viable[c] || totals[c] < new_min_support) continue;
      result.itemsets.add(level_candidates[c], totals[c]);
      new_level.push_back(level_candidates[c]);
    }
    std::sort(new_level.begin(), new_level.end());
    level_candidates = join_level(new_level);
  }
  return result;
}

}  // namespace plt::core
