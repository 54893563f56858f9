#include "core/closed.hpp"

#include <algorithm>
#include <unordered_map>

namespace plt::core {

namespace {

// Index: for each itemset id, the ids of itemsets exactly one item larger
// that contain it would be expensive to build directly; instead we bucket
// itemsets by size and test supersets within the next size bucket via a
// hash of the candidate superset (drop-one-item probing), which is
// O(Σ |itemset|) rather than O(n²).
struct VecHash {
  std::size_t operator()(const Itemset& s) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Item i : s) {
      h ^= i;
      h *= 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

using Lookup = std::unordered_map<Itemset, Count, VecHash>;

Lookup build_lookup(const FrequentItemsets& frequent) {
  Lookup lookup;
  lookup.reserve(frequent.size() * 2);
  for (std::size_t i = 0; i < frequent.size(); ++i)
    lookup.emplace(frequent.itemset(i), frequent.support(i));
  return lookup;
}

}  // namespace

FrequentItemsets closed_itemsets(const FrequentItemsets& frequent) {
  // An itemset is non-closed iff some frequent superset has the same
  // support. Supports are non-increasing in supersets, so it suffices to
  // look one level up: for every (k+1)-itemset Z, each drop-one subset S
  // gets sup(Z) as a candidate "best superset support".
  std::unordered_map<Itemset, Count, VecHash> best_superset_support;
  best_superset_support.reserve(frequent.size());
  Itemset subset;
  frequent.for_each([&](std::span<const Item> z, Count support) {
    if (z.size() < 2) return;
    for (std::size_t drop = 0; drop < z.size(); ++drop) {
      subset.clear();
      for (std::size_t j = 0; j < z.size(); ++j)
        if (j != drop) subset.push_back(z[j]);
      auto& slot = best_superset_support[subset];
      slot = std::max(slot, support);
    }
  });

  FrequentItemsets closed;
  for (std::size_t i = 0; i < frequent.size(); ++i) {
    const Itemset z = frequent.itemset(i);
    const auto it = best_superset_support.find(z);
    const bool is_closed =
        it == best_superset_support.end() || it->second < frequent.support(i);
    if (is_closed) closed.add(z, frequent.support(i));
  }
  return closed;
}

FrequentItemsets maximal_itemsets(const FrequentItemsets& frequent) {
  // An itemset is non-maximal iff it is the drop-one subset of some
  // frequent itemset.
  std::unordered_map<Itemset, bool, VecHash> has_superset;
  has_superset.reserve(frequent.size());
  Itemset subset;
  frequent.for_each([&](std::span<const Item> z, Count) {
    if (z.size() < 2) return;
    for (std::size_t drop = 0; drop < z.size(); ++drop) {
      subset.clear();
      for (std::size_t j = 0; j < z.size(); ++j)
        if (j != drop) subset.push_back(z[j]);
      has_superset[subset] = true;
    }
  });
  FrequentItemsets maximal;
  for (std::size_t i = 0; i < frequent.size(); ++i) {
    const Itemset z = frequent.itemset(i);
    if (!has_superset.count(z)) maximal.add(z, frequent.support(i));
  }
  return maximal;
}

std::string check_condensed(const FrequentItemsets& frequent,
                            const FrequentItemsets& closed,
                            const FrequentItemsets& maximal) {
  const Lookup closed_lookup = build_lookup(closed);

  // Every maximal itemset must be closed.
  for (std::size_t i = 0; i < maximal.size(); ++i)
    if (!closed_lookup.count(maximal.itemset(i)))
      return "maximal itemset is not closed";

  // Every frequent itemset must be covered by a maximal superset and its
  // support must be recoverable from the closed set (max support over
  // closed supersets).
  Itemset scratch, scratch_m, scratch_c;
  for (std::size_t i = 0; i < frequent.size(); ++i) {
    const auto z = frequent.itemset(i, scratch);
    bool covered = false;
    for (std::size_t m = 0; m < maximal.size() && !covered; ++m) {
      const auto zm = maximal.itemset(m, scratch_m);
      covered = std::includes(zm.begin(), zm.end(), z.begin(), z.end());
    }
    if (!covered) return "frequent itemset not covered by any maximal";

    Count best = 0;
    for (std::size_t c = 0; c < closed.size(); ++c) {
      const auto zc = closed.itemset(c, scratch_c);
      if (std::includes(zc.begin(), zc.end(), z.begin(), z.end()))
        best = std::max(best, closed.support(c));
    }
    if (best != frequent.support(i))
      return "support not recoverable from the closed set";
  }
  return "";
}

}  // namespace plt::core
