// Property tests for the position-vector encoding: Lemma 4.1.1 (ranks are
// prefix sums), Lemma 4.1.2 (injectivity), Lemma 4.1.3 (level-(k-1) subset
// forms) and Property 4.1.1 adjacents, on both hand-picked and randomized
// itemsets.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/position_vector.hpp"
#include "util/rng.hpp"

namespace plt::core {
namespace {

std::vector<Rank> random_itemset(Rng& rng, Rank max_rank, std::size_t size) {
  std::set<Rank> picked;
  while (picked.size() < size)
    picked.insert(static_cast<Rank>(rng.next_below(max_rank) + 1));
  return {picked.begin(), picked.end()};
}

TEST(PositionVector, PaperExampleEncoding) {
  // Table 1 itemset {A,B,D} with ranks 1,2,4 -> [1,1,2].
  const std::vector<Rank> ranks{1, 2, 4};
  const PosVec v = to_positions(ranks);
  EXPECT_EQ(v, (PosVec{1, 1, 2}));
  EXPECT_EQ(vector_sum(v), 4u);  // sum == rank of last item (Lemma 4.1.1)
  EXPECT_EQ(to_ranks(v), ranks);
}

TEST(PositionVector, SingleItem) {
  const std::vector<Rank> ranks{7};
  EXPECT_EQ(to_positions(ranks), (PosVec{7}));
  EXPECT_EQ(to_ranks(PosVec{7}), ranks);
}

TEST(PositionVector, EmptyVector) {
  EXPECT_TRUE(to_positions({}).empty());
  EXPECT_TRUE(to_ranks({}).empty());
  EXPECT_EQ(vector_sum({}), 0u);
}

TEST(PositionVector, IsValidRejectsZeroAndOverflow) {
  EXPECT_TRUE(is_valid(PosVec{1, 2, 1}, 4));
  EXPECT_FALSE(is_valid(PosVec{1, 2, 2}, 4));  // sum 5 > 4
  EXPECT_FALSE(is_valid(PosVec{0, 1}, 4));     // zero position
  EXPECT_FALSE(is_valid(PosVec{0xFFFFFFFFu, 2}, 4));  // sum wraps to 1 in u32
  EXPECT_TRUE(is_valid(PosVec{}, 4));
}

TEST(PositionVector, CheckedSumIsZeroExactlyWhenInvalid) {
  EXPECT_EQ(checked_sum(PosVec{1, 2, 1}, 4), 4u);
  EXPECT_EQ(checked_sum(PosVec{3}, 4), 3u);
  EXPECT_EQ(checked_sum(PosVec{1, 2, 2}, 4), 0u);
  EXPECT_EQ(checked_sum(PosVec{0, 3}, 4), 0u);
  EXPECT_EQ(checked_sum(PosVec{0xFFFFFFFFu, 2}, 4), 0u);
  EXPECT_EQ(checked_sum(PosVec{2, 0xFFFFFFFFu}, 4), 0u);
  EXPECT_EQ(checked_sum(PosVec{}, 4), 0u);
  EXPECT_EQ(checked_sum(PosVec{0xFFFFFFFFu}, 0xFFFFFFFFu), 0xFFFFFFFFu);
}

TEST(PositionVector, DropLastAndMergeForms) {
  const PosVec v{1, 1, 2};  // {1,2,4}
  EXPECT_EQ(drop_last(v), (PosVec{1, 1}));        // {1,2}
  EXPECT_EQ(merge_at(v, 0), (PosVec{2, 2}));      // {2,4}
  EXPECT_EQ(merge_at(v, 1), (PosVec{1, 3}));      // {1,4}
}

TEST(PositionVector, LevelSubsetsOfSingleton) {
  EXPECT_TRUE(level_subsets(PosVec{3}).empty());
}

TEST(PositionVector, ToString) {
  EXPECT_EQ(to_string(PosVec{1, 2, 1}), "[1,2,1]");
  EXPECT_EQ(to_string(PosVec{}), "[]");
}

// Lemma 4.1.1 as a property: Rank(x_i) == Σ_{j<=i} pos(x_j).
TEST(PositionVector, Lemma411_RoundTripRandomized) {
  Rng rng(101);
  for (int trial = 0; trial < 500; ++trial) {
    const auto size = 1 + rng.next_below(12);
    const auto ranks = random_itemset(rng, 64, size);
    const PosVec v = to_positions(ranks);
    ASSERT_EQ(to_ranks(v), ranks);
    ASSERT_EQ(vector_sum(v), ranks.back());
    for (const Pos p : v) ASSERT_GE(p, 1u);
  }
}

// Lemma 4.1.2 as a property: distinct itemsets -> distinct vectors.
TEST(PositionVector, Lemma412_InjectivityRandomized) {
  Rng rng(103);
  std::set<std::vector<Rank>> itemsets;
  std::set<PosVec> vectors;
  for (int trial = 0; trial < 2000; ++trial) {
    const auto size = 1 + rng.next_below(8);
    const auto ranks = random_itemset(rng, 32, size);
    itemsets.insert(ranks);
    vectors.insert(to_positions(ranks));
  }
  EXPECT_EQ(itemsets.size(), vectors.size());
}

// Lemma 4.1.3 as a property: the level-(k-1) forms are exactly the encodings
// of the k-1 element-drop subsets, in drop order {last, x1, x2, ...}.
TEST(PositionVector, Lemma413_SubsetFormsRandomized) {
  Rng rng(107);
  for (int trial = 0; trial < 300; ++trial) {
    const auto size = 2 + rng.next_below(9);
    const auto ranks = random_itemset(rng, 48, size);
    const PosVec v = to_positions(ranks);
    const auto forms = level_subsets(v);
    ASSERT_EQ(forms.size(), ranks.size());

    // Form (a): drop the last element.
    std::vector<Rank> expect(ranks.begin(), ranks.end() - 1);
    ASSERT_EQ(forms[0], to_positions(expect));

    // Form (b) with 0-based merge index i: drops the 0-based element i
    // (its position value folds into the successor's).
    for (std::size_t i = 0; i + 1 < ranks.size(); ++i) {
      std::vector<Rank> subset;
      for (std::size_t j = 0; j < ranks.size(); ++j)
        if (j != i) subset.push_back(ranks[j]);
      ASSERT_EQ(forms[i + 1], to_positions(subset))
          << "merge index " << i;
    }
  }
}

// Property 4.1.1 consequence used throughout: the vector of a subset is
// reachable by a sequence of merges/drops; verify one random chain.
TEST(PositionVector, SubsetReachableByDeletionChain) {
  Rng rng(109);
  for (int trial = 0; trial < 200; ++trial) {
    const auto size = 3 + rng.next_below(8);
    auto ranks = random_itemset(rng, 40, size);
    PosVec v = to_positions(ranks);
    // Delete elements in decreasing index order (the canonical order).
    while (ranks.size() > 1) {
      const auto del = rng.next_below(ranks.size());
      PosVec next =
          (del + 1 == ranks.size()) ? drop_last(v)
                                    : merge_at(v, del);
      ranks.erase(ranks.begin() + static_cast<std::ptrdiff_t>(del));
      ASSERT_EQ(next, to_positions(ranks));
      v = std::move(next);
    }
  }
}

TEST(PositionVectorDeath, RejectsNonIncreasingRanks) {
  EXPECT_DEATH(to_positions(std::vector<Rank>{3, 3}), "strictly increasing");
  EXPECT_DEATH(to_positions(std::vector<Rank>{5, 2}), "strictly increasing");
}

TEST(PositionVectorDeath, MergeOutOfRange) {
  EXPECT_DEATH(merge_at(PosVec{1, 2}, 1), "out of range");
}

}  // namespace
}  // namespace plt::core
