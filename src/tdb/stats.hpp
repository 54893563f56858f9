// Dataset statistics: the knobs that drive mining cost (density, transaction
// lengths, item-frequency skew). Used to verify that synthetic datasets match
// the published characteristics of the FIMI benchmarks they stand in for.
#pragma once

#include <string>
#include <vector>

#include "tdb/database.hpp"

namespace plt::tdb {

struct Stats {
  std::size_t transactions = 0;
  std::size_t distinct_items = 0;
  std::size_t total_items = 0;
  std::size_t min_len = 0;
  std::size_t max_len = 0;
  double avg_len = 0.0;
  /// avg_len / distinct_items: 1.0 means every transaction holds every item.
  double density = 0.0;
  /// Gini coefficient of item supports; 0 = uniform, ->1 = heavily skewed.
  double support_gini = 0.0;
  /// Histogram of transaction lengths (index = length).
  std::vector<std::size_t> length_histogram;
};

Stats compute_stats(const Database& db);

/// Multi-line human-readable rendering.
std::string to_string(const Stats& stats);

}  // namespace plt::tdb
