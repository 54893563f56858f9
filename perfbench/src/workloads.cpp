#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "datagen/registry.hpp"

namespace perfbench {

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> workloads = [] {
    std::vector<WorkloadSpec> list;
    WorkloadSpec basket;
    basket.name = "basket-sparse";
    basket.dataset = "quest-sparse";
    basket.transactions = 100000;
    basket.population_factor = 2;
    basket.minsup_fraction = 0.002;
    basket.in_flight = 1;
    list.push_back(basket);

    WorkloadSpec dense;
    dense.name = "dense-deep";
    dense.dataset = "chess-like";
    dense.transactions = 3196;
    dense.population_factor = 4;
    dense.minsup_fraction = 0.40;
    dense.in_flight = 8;
    list.push_back(dense);

    WorkloadSpec click;
    click.name = "clickstream-refresh";
    click.dataset = "clickstream";
    click.transactions = 60000;
    click.population_factor = 4;
    click.minsup_fraction = 0.001;
    click.in_flight = 1;
    click.zipf_ranks = true;
    click.refresh = true;
    list.push_back(click);
    return list;
  }();
  return workloads;
}

const WorkloadSpec& workload(const std::string& name) {
  for (const WorkloadSpec& spec : all_workloads())
    if (spec.name == name) return spec;
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

std::vector<plt::tdb::Database> generate_windows(const WorkloadSpec& spec,
                                                 std::size_t transactions,
                                                 std::uint64_t seed) {
  const std::size_t windows = spec.refresh ? 2 : 1;
  std::uint64_t population_seed = 0;
  for (const plt::datagen::DatasetSpec& dataset :
       plt::datagen::dataset_registry())
    if (dataset.name == spec.dataset) population_seed = dataset.default_seed;
  const plt::tdb::Database population = plt::datagen::make_dataset(
      spec.dataset, spec.population_factor * transactions, population_seed);
  const std::size_t wanted = windows * transactions;
  if (wanted > population.size())
    throw std::invalid_argument("population too small for the windows");

  // Partial Fisher-Yates: the first `wanted` slots become a uniform sample
  // without replacement.
  std::vector<std::size_t> rows(population.size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < wanted; ++i) {
    std::uniform_int_distribution<std::size_t> pick(i, rows.size() - 1);
    std::swap(rows[i], rows[pick(rng)]);
  }
  std::vector<plt::tdb::Database> out(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = rows.begin() + static_cast<std::ptrdiff_t>(w * transactions);
    const auto end = begin + static_cast<std::ptrdiff_t>(transactions);
    std::sort(begin, end);
    for (auto it = begin; it != end; ++it) out[w].add(population[*it]);
  }
  return out;
}

const char* const kClassNames[kQueryClasses] = {"support", "rule",
                                                "membership", "topk"};

int query_class(plt::serve::Opcode opcode) {
  switch (opcode) {
    case plt::serve::Opcode::kSupport: return 0;
    case plt::serve::Opcode::kRule: return 1;
    case plt::serve::Opcode::kMembership: return 2;
    case plt::serve::Opcode::kTopK: return 3;
    default: return -1;
  }
}

RequestGenerator::RequestGenerator(std::uint64_t seed,
                                   std::vector<plt::Rank> popularity,
                                   bool zipf)
    : rng_(seed), popularity_(std::move(popularity)), zipf_(zipf) {
  if (popularity_.empty())
    throw std::invalid_argument("request generator needs at least one rank");
  if (zipf_) {
    double total = 0.0;
    zipf_cdf_.reserve(popularity_.size());
    for (std::size_t i = 0; i < popularity_.size(); ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      zipf_cdf_.push_back(total);
    }
    for (double& p : zipf_cdf_) p /= total;
  }
}

plt::Rank RequestGenerator::draw_rank() {
  if (!zipf_) {
    std::uniform_int_distribution<std::size_t> pick(0, popularity_.size() - 1);
    return popularity_[pick(rng_)];
  }
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  const auto index = std::min<std::size_t>(
      static_cast<std::size_t>(it - zipf_cdf_.begin()), popularity_.size() - 1);
  return popularity_[index];
}

plt::serve::Request RequestGenerator::next() {
  using plt::serve::Opcode;
  plt::serve::Request request;
  const int roll = std::uniform_int_distribution<int>(0, 99)(rng_);
  request.opcode = roll < 40   ? Opcode::kSupport
                   : roll < 70 ? Opcode::kRule
                   : roll < 90 ? Opcode::kMembership
                               : Opcode::kTopK;
  if (request.opcode == Opcode::kTopK) {
    request.k = 10;
    return request;
  }
  const std::size_t distinct = std::min<std::size_t>(popularity_.size(), 4);
  const std::size_t want =
      std::uniform_int_distribution<std::size_t>(1, 3)(rng_);
  const bool rule = request.opcode == Opcode::kRule;
  // A rule needs a consequent outside its antecedent.
  const std::size_t size =
      std::min(want + (rule ? 1 : 0), distinct);
  std::vector<plt::Rank> ranks;
  while (ranks.size() < size) {
    const plt::Rank rank = draw_rank();
    if (std::find(ranks.begin(), ranks.end(), rank) == ranks.end())
      ranks.push_back(rank);
  }
  if (rule && ranks.size() >= 2) {
    request.consequent = ranks.back();
    ranks.pop_back();
  } else if (rule) {
    request.opcode = Opcode::kSupport;  // a one-rank blob has no rules
  }
  std::sort(ranks.begin(), ranks.end());
  request.ranks = std::move(ranks);
  return request;
}

}  // namespace perfbench
