#include "rules/generator.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

namespace plt::rules {

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

Itemset set_minus(std::span<const Item> z, const Itemset& y) {
  Itemset x;
  x.reserve(z.size() - y.size());
  std::set_difference(z.begin(), z.end(), y.begin(), y.end(),
                      std::back_inserter(x));
  return x;
}

// Apriori-style join of same-length consequents sharing all but the last
// element.
std::vector<Itemset> join_consequents(const std::vector<Itemset>& level) {
  std::vector<Itemset> next;
  for (std::size_t a = 0; a < level.size(); ++a) {
    for (std::size_t b = a + 1; b < level.size(); ++b) {
      if (!std::equal(level[a].begin(), level[a].end() - 1,
                      level[b].begin()))
        break;
      Itemset joined = level[a];
      joined.push_back(level[b].back());
      next.push_back(std::move(joined));
    }
  }
  return next;
}

}  // namespace

std::string to_string(const Rule& rule) {
  auto render = [](const Itemset& s) {
    std::ostringstream out;
    out << '{';
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (i) out << ',';
      out << s[i];
    }
    out << '}';
    return out.str();
  };
  std::ostringstream out;
  out << render(rule.antecedent) << " => " << render(rule.consequent);
  char buf[96];
  std::snprintf(buf, sizeof buf, " (sup=%.3f conf=%.3f lift=%.2f)",
                rule.metrics.support, rule.metrics.confidence,
                rule.metrics.lift);
  out << buf;
  return out.str();
}

std::vector<Rule> generate_rules(const core::FrequentItemsets& frequent,
                                 Count transactions,
                                 const RuleOptions& options) {
  // Support lookup for every frequent itemset.
  SupportMap supports;
  supports.reserve(frequent.size() * 2);
  for (std::size_t i = 0; i < frequent.size(); ++i)
    supports.emplace(frequent.itemset(i), frequent.support(i));

  std::vector<Rule> rules;
  const auto support_of = [&](const Itemset& s) -> Count {
    const auto it = supports.find(s);
    PLT_ASSERT(it != supports.end(),
               "rule generation requires support-complete itemsets");
    return it->second;
  };

  for (std::size_t i = 0; i < frequent.size(); ++i) {
    const auto z = frequent.itemset(i);
    if (z.size() < 2) continue;
    const Count z_support = frequent.support(i);

    // Level 1 consequents: each single item of Z.
    std::vector<Itemset> level;
    for (const Item item : z) level.push_back({item});

    while (!level.empty()) {
      std::vector<Itemset> survivors;
      for (Itemset& y : level) {
        if (y.size() >= z.size()) continue;  // antecedent must be non-empty
        Itemset x = set_minus(z, y);
        const Count x_support = support_of(x);
        const double confidence = static_cast<double>(z_support) /
                                  static_cast<double>(x_support);
        if (confidence + 1e-12 < options.min_confidence) continue;
        Rule rule;
        rule.antecedent = std::move(x);
        rule.consequent = y;
        rule.union_support = z_support;
        rule.metrics = compute_metrics(z_support, x_support, support_of(y),
                                       transactions);
        rules.push_back(std::move(rule));
        if (options.max_rules > 0 && rules.size() >= options.max_rules)
          return rules;
        survivors.push_back(std::move(y));
      }
      if (survivors.empty()) break;
      level = join_consequents(survivors);
    }
  }
  return rules;
}

}  // namespace plt::rules
