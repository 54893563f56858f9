#include "core/border.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "baselines/counting.hpp"
#include "datagen/transforms.hpp"

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

using ItemsetSet = std::unordered_set<Itemset, ItemsetHash>;

}  // namespace

std::vector<Itemset> negative_border(
    const FrequentItemsets& frequent,
    const std::vector<Item>& universe) {
  ItemsetSet in_frequent;
  in_frequent.reserve(frequent.size() * 2);
  std::size_t max_len = 0;
  for (std::size_t i = 0; i < frequent.size(); ++i) {
    Itemset z = frequent.itemset(i);
    max_len = std::max(max_len, z.size());
    in_frequent.insert(std::move(z));
  }

  std::vector<Itemset> border;
  // Level 1: universe items that are not frequent.
  for (const Item item : universe)
    if (!in_frequent.count(Itemset{item})) border.push_back({item});

  // Level k >= 2: join frequent (k-1)-itemsets, prune by all-subsets-in-F,
  // keep those not themselves in F.
  std::vector<Itemset> level;
  for (std::size_t i = 0; i < frequent.size(); ++i)
    if (Itemset z = frequent.itemset(i); z.size() == 1)
      level.push_back(std::move(z));
  std::sort(level.begin(), level.end());

  Itemset probe;
  for (std::size_t k = 2; k <= max_len + 1 && !level.empty(); ++k) {
    std::vector<Itemset> next_level;
    for (std::size_t a = 0; a < level.size(); ++a) {
      for (std::size_t b = a + 1; b < level.size(); ++b) {
        if (!std::equal(level[a].begin(), level[a].end() - 1,
                        level[b].begin()))
          break;
        Itemset candidate = level[a];
        candidate.push_back(level[b].back());
        // All proper (k-1)-subsets must be frequent for the candidate to be
        // minimal-infrequent or frequent.
        bool all_subsets_frequent = true;
        for (std::size_t drop = 0;
             drop + 2 < candidate.size() && all_subsets_frequent; ++drop) {
          probe.clear();
          for (std::size_t j = 0; j < candidate.size(); ++j)
            if (j != drop) probe.push_back(candidate[j]);
          all_subsets_frequent = in_frequent.count(probe) > 0;
        }
        if (!all_subsets_frequent) continue;
        if (in_frequent.count(candidate)) {
          next_level.push_back(std::move(candidate));
        } else {
          border.push_back(std::move(candidate));
        }
      }
    }
    level = std::move(next_level);
    std::sort(level.begin(), level.end());
  }
  return border;
}

ToivonenResult mine_toivonen(const tdb::Database& db, Count min_support,
                             const ToivonenOptions& options) {
  PLT_ASSERT(min_support >= 1, "min_support must be >= 1");
  PLT_ASSERT(options.sample_fraction > 0.0 && options.sample_fraction <= 1.0,
             "sample_fraction must be in (0,1]");
  ToivonenResult result;

  std::vector<Item> universe;
  {
    const auto supports = db.item_supports();
    for (Item i = 0; i < supports.size(); ++i)
      if (supports[i] > 0) universe.push_back(i);
  }

  for (std::size_t attempt = 0; attempt < options.max_retries; ++attempt) {
    ++result.attempts;
    const auto sample = datagen::sample_transactions(
        db, options.sample_fraction, options.seed + attempt);
    if (sample.empty()) continue;

    // Escalate the safety margin on every retry: a failed round means the
    // sample missed true patterns, so the next round must cast wider.
    const double lowering =
        options.lowering *
        std::pow(0.7, static_cast<double>(attempt));
    const auto sample_threshold = std::max<Count>(
        1, static_cast<Count>(lowering * static_cast<double>(min_support) *
                              options.sample_fraction));
    const auto sample_frequent =
        mine(sample, sample_threshold, options.sample_algorithm).itemsets;

    // Candidates: sample-frequent itemsets + their negative border.
    std::vector<Itemset> candidates;
    candidates.reserve(sample_frequent.size());
    for (std::size_t i = 0; i < sample_frequent.size(); ++i)
      candidates.push_back(sample_frequent.itemset(i));
    const std::size_t frequent_count = candidates.size();
    const auto border = negative_border(sample_frequent, universe);
    candidates.insert(candidates.end(), border.begin(), border.end());
    result.border_size = border.size();
    result.candidates = candidates.size();

    // One exact counting pass over the full database.
    baselines::CountingTrie trie(candidates);
    for (std::size_t t = 0; t < db.size(); ++t) trie.count(db[t]);

    // If any border itemset is frequent, the sample missed patterns —
    // retry with a fresh sample.
    bool missed = false;
    for (std::size_t c = frequent_count; c < candidates.size(); ++c)
      if (trie.support(c) >= min_support) {
        missed = true;
        break;
      }
    if (missed) continue;

    for (std::size_t c = 0; c < frequent_count; ++c)
      if (trie.support(c) >= min_support)
        result.itemsets.add(candidates[c], trie.support(c));
    return result;
  }

  // Every sample failed: fall back to exact mining.
  ++result.attempts;
  result.used_fallback = true;
  result.itemsets = mine(db, min_support, Algorithm::kPltConditional).itemsets;
  return result;
}

}  // namespace plt::core
