// Position vectors (Definitions 4.1.2/4.1.3): an itemset {x1<...<xk} over
// ranks is encoded as the gap vector [Rank(x1), Rank(x2)-Rank(x1), ...,
// Rank(xk)-Rank(x_{k-1})]. Lemma 4.1.1: Rank(xi) = prefix-sum of positions;
// Lemma 4.1.2: the encoding is injective; Lemma 4.1.3: level-(k-1) subsets
// are the tail-drop and the k-1 adjacent-pair merges.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace plt::core {

/// A position vector. Every element is >= 1.
using PosVec = std::vector<Pos>;

/// Encodes a strictly-increasing rank sequence as positions.
PosVec to_positions(std::span<const Rank> ranks);

/// Decodes positions back to ranks (prefix sums) — Lemma 4.1.1.
std::vector<Rank> to_ranks(std::span<const Pos> positions);

/// Sum of all positions == rank of the last (highest) item. This is the
/// per-vector `sum` the paper stores for the conditional approach.
Rank vector_sum(std::span<const Pos> positions);

/// True iff `v` is a well-formed position vector (all positions >= 1 and the
/// sum does not exceed max_rank).
bool is_valid(std::span<const Pos> positions, Rank max_rank);

/// vector_sum(positions) when `positions` is a well-formed non-empty vector
/// over max_rank, else 0. One overflow-safe pass: hostile positions such as
/// {0xFFFFFFFF, 2} cannot wrap the sum back into range. Blob readers use it
/// to check an entry and find its Lemma 4.1.1 bucket at once.
Rank checked_sum(std::span<const Pos> positions, Rank max_rank);

/// All level-(k-1) subset vectors of `v` per Lemma 4.1.3: the tail-drop form
/// (a) followed by the k-1 merge forms (b), in merge-position order.
std::vector<PosVec> level_subsets(std::span<const Pos> v);

/// The tail-drop subset (form (a)); empty for k == 1.
PosVec drop_last(std::span<const Pos> v);

/// The merge-at-i subset (form (b)), replacing (p_i, p_{i+1}) by their sum;
/// i is 0-based and must satisfy i + 1 < v.size().
PosVec merge_at(std::span<const Pos> v, std::size_t i);

/// "[1,2,1]" rendering for tests and the paper-artifact bench.
std::string to_string(std::span<const Pos> positions);

}  // namespace plt::core
