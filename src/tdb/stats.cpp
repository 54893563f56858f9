#include "tdb/stats.hpp"

#include <algorithm>
#include <sstream>

#include "util/memory.hpp"

namespace plt::tdb {

Stats compute_stats(const Database& db) {
  Stats s;
  s.transactions = db.size();
  s.total_items = db.total_items();
  if (db.empty()) return s;

  s.min_len = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < db.size(); ++i) {
    const std::size_t len = db[i].size();
    s.min_len = std::min(s.min_len, len);
    s.max_len = std::max(s.max_len, len);
    if (len >= s.length_histogram.size()) s.length_histogram.resize(len + 1);
    s.length_histogram[len] += 1;
  }
  s.avg_len = static_cast<double>(s.total_items) /
              static_cast<double>(s.transactions);

  auto supports = db.item_supports();
  std::vector<Count> nonzero;
  nonzero.reserve(supports.size());
  for (const Count c : supports)
    if (c > 0) nonzero.push_back(c);
  s.distinct_items = nonzero.size();
  if (s.distinct_items > 0)
    s.density = s.avg_len / static_cast<double>(s.distinct_items);

  // Gini via the sorted-values formula (counts are u64, and the support
  // mass fits: it equals total_items).
  if (nonzero.size() > 1) {
    std::sort(nonzero.begin(), nonzero.end());
    const auto n = static_cast<double>(nonzero.size());
    Count mass = 0;
    double weighted = 0.0;
    for (std::size_t i = 0; i < nonzero.size(); ++i) {
      mass += nonzero[i];
      weighted += static_cast<double>(i + 1) * static_cast<double>(nonzero[i]);
    }
    const auto total = static_cast<double>(mass);
    s.support_gini = (2.0 * weighted) / (n * total) - (n + 1.0) / n;
  }
  return s;
}

std::string to_string(const Stats& s) {
  std::ostringstream out;
  out << "transactions:   " << s.transactions << '\n'
      << "distinct items: " << s.distinct_items << '\n'
      << "total items:    " << s.total_items << '\n'
      << "length min/avg/max: " << s.min_len << " / " << s.avg_len << " / "
      << s.max_len << '\n'
      << "density:        " << s.density << '\n'
      << "support gini:   " << s.support_gini << '\n';
  return out.str();
}

}  // namespace plt::tdb
