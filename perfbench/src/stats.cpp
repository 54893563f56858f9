#include "stats.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Quantile quantile(std::vector<double> samples, double q) {
  Quantile out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.
  const auto n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  return out;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void Digest::add(std::span<const plt::Item> items, plt::Count support) {
  // Itemset emission order is path-specific; sort a copy so the same
  // itemset always hashes the same.
  plt::Item sorted[64];
  std::vector<plt::Item> spill;
  plt::Item* begin = sorted;
  if (items.size() > std::size(sorted)) {
    spill.assign(items.begin(), items.end());
    begin = spill.data();
  } else {
    std::copy(items.begin(), items.end(), sorted);
  }
  std::sort(begin, begin + items.size());
  std::uint64_t h = mix64(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) h = mix64(h ^ begin[i]);
  h = mix64(h ^ (std::uint64_t{support} << 1));
  ++count_;
  sum_ += h;
  xor_ ^= std::rotl(h, 17);
}

void Digest::add(const plt::core::FrequentItemsets& itemsets) {
  for (std::size_t i = 0; i < itemsets.size(); ++i)
    add(itemsets.itemset(i), itemsets.support(i));
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           format_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
