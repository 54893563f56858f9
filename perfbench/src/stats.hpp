// Order statistics, output digests and result printing for the benchmark.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/itemset_collector.hpp"

namespace perfbench {

/// Steady-clock nanoseconds since an arbitrary epoch.
std::int64_t now_ns();

/// Seconds elapsed since `start_ns`.
double seconds_since(std::int64_t start_ns);

/// Median of `values` (mean of the two middle values for an even count);
/// NaN, printed as null, when there are none.
double median(std::vector<double> values);

/// An exact order statistic: the nearest-rank q-quantile of the samples,
/// together with how many samples lie strictly above its rank. A failed
/// operation is recorded as +infinity, so it ranks slower than every
/// success and failing fast can never improve a latency.
struct Quantile {
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples ranked above the chosen one
};
Quantile quantile(std::vector<double> samples, double q);

/// Failed operations enter latency samples as this value.
inline constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/// Percentiles need at least this many samples ranked above them.
inline constexpr std::size_t kMinBeyond = 10;

/// Order-independent digest of an itemset collection: count plus the sum
/// and xor of a 64-bit hash of every (sorted itemset, support) pair, so a
/// sink-based path can be compared with core::mine without materialising
/// or sorting its output.
class Digest {
 public:
  void add(std::span<const plt::Item> items, plt::Count support);
  void add(const plt::core::FrequentItemsets& itemsets);
  bool operator==(const Digest& other) const = default;

 private:
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t xor_ = 0;
};

/// 64-bit mixing step (splitmix64 finaliser).
std::uint64_t mix64(std::uint64_t x);

/// One named metric of the final result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest decimal text that reads back as exactly `value`.
std::string format_number(double value);

/// JSON string literal for `text` (quotes and escapes included).
std::string json_string(const std::string& text);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
