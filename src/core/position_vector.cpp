#include "core/position_vector.hpp"

#include <sstream>

namespace plt::core {

PosVec to_positions(std::span<const Rank> ranks) {
  PosVec v;
  v.reserve(ranks.size());
  Rank prev = 0;
  for (const Rank r : ranks) {
    PLT_ASSERT(r > prev, "ranks must be strictly increasing and >= 1");
    v.push_back(r - prev);
    prev = r;
  }
  return v;
}

std::vector<Rank> to_ranks(std::span<const Pos> positions) {
  std::vector<Rank> ranks;
  ranks.reserve(positions.size());
  Rank acc = 0;
  for (const Pos p : positions) {
    PLT_ASSERT(p >= 1, "positions must be >= 1");
    acc += p;
    ranks.push_back(acc);
  }
  return ranks;
}

Rank vector_sum(std::span<const Pos> positions) {
  Rank sum = 0;
  for (const Pos p : positions) sum += p;
  return sum;
}

bool is_valid(std::span<const Pos> positions, Rank max_rank) {
  return positions.empty() || checked_sum(positions, max_rank) != 0;
}

Rank checked_sum(std::span<const Pos> positions, Rank max_rank) {
  Rank acc = 0;
  for (const Pos p : positions) {
    // acc <= max_rank holds here, so comparing p against the headroom
    // cannot wrap the way acc + p can.
    if (p < 1 || p > max_rank - acc) return 0;
    acc += p;
  }
  return acc;
}

PosVec drop_last(std::span<const Pos> v) {
  PLT_ASSERT(!v.empty(), "drop_last of an empty vector");
  return PosVec(v.begin(), v.end() - 1);
}

PosVec merge_at(std::span<const Pos> v, std::size_t i) {
  PLT_ASSERT(i + 1 < v.size(), "merge_at: index out of range");
  PosVec out;
  out.reserve(v.size() - 1);
  for (std::size_t j = 0; j < v.size(); ++j) {
    if (j == i) {
      out.push_back(v[i] + v[i + 1]);
      ++j;  // skip v[i+1], already folded in
    } else {
      out.push_back(v[j]);
    }
  }
  return out;
}

std::vector<PosVec> level_subsets(std::span<const Pos> v) {
  std::vector<PosVec> subsets;
  if (v.size() <= 1) return subsets;  // only the empty set below a 1-vector
  subsets.reserve(v.size());
  subsets.push_back(drop_last(v));
  for (std::size_t i = 0; i + 1 < v.size(); ++i)
    subsets.push_back(merge_at(v, i));
  return subsets;
}

std::string to_string(std::span<const Pos> positions) {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (i) out << ',';
    out << positions[i];
  }
  out << ']';
  return out.str();
}

}  // namespace plt::core
