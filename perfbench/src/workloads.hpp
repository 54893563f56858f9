// The benchmark's workloads: which generator feeds each, at what size and
// support, and the closed-loop traffic mix that is sent to plt-serve. The
// reasons each one exists are in perfbench/README.md.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "tdb/database.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::string dataset;  ///< datagen registry name
  std::size_t transactions = 0;  ///< per data window
  /// The rows are drawn from a population of this many times the rows the
  /// windows need, generated once at the registry's own seed.
  std::size_t population_factor = 2;
  double minsup_fraction = 0.0;  ///< minimum support, share of the rows
  std::size_t in_flight = 1;    ///< requests each connection keeps pending
  bool zipf_ranks = false;      ///< Zipf(1) ranks over item popularity
  /// Two data windows; a writer replaces the served blob with the other
  /// window every kRefreshPeriodMs and reloads it under traffic.
  bool refresh = false;
};

/// Every workload serves two closed-loop client connections.
inline constexpr std::size_t kClientConnections = 2;
inline constexpr int kRefreshPeriodMs = 250;

/// The workload called `name`, or throws std::invalid_argument.
const WorkloadSpec& workload(const std::string& name);
const std::vector<WorkloadSpec>& all_workloads();

/// The workload's input data for `seed`: one window of `transactions`
/// rows, or two disjoint ones for a refresh workload. The generator runs at
/// the registry's seed to make a fixed population (its Quest patterns,
/// dense class cores or link graph), and `seed` draws the rows from it
/// without replacement, each window keeping the population's row order.
/// Drawing from one population keeps the structure every seed mines alike:
/// generated straight from the seed, chess-like's four random class cores
/// alone moved the 40% itemset count from 0.18 to 0.62 M.
std::vector<plt::tdb::Database> generate_windows(const WorkloadSpec& spec,
                                                 std::size_t transactions,
                                                 std::uint64_t seed);

/// Draws queries in rank space over 1..max_rank: 40% support, 30% rule,
/// 20% membership, 10% top-k; itemsets of 1-3 distinct ranks, drawn
/// uniformly or Zipf(1) over `popularity` (ranks, most supported first).
class RequestGenerator {
 public:
  RequestGenerator(std::uint64_t seed, std::vector<plt::Rank> popularity,
                   bool zipf);
  plt::serve::Request next();

 private:
  plt::Rank draw_rank();
  std::mt19937_64 rng_;
  std::vector<plt::Rank> popularity_;
  bool zipf_ = false;
  std::vector<double> zipf_cdf_;
};

/// Class index of an opcode in the per-class tables below.
int query_class(plt::serve::Opcode opcode);
inline constexpr int kQueryClasses = 4;
/// Metric-name spelling of each class: support, rule, membership, topk.
extern const char* const kClassNames[kQueryClasses];

}  // namespace perfbench
