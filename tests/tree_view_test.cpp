// Tests for the physical tree form (Figure 3(b)/Figure 1): construction
// from the table form, lossless round trip, navigation, the in-place
// rebuild behind the projection engine's pooled frames, and the full
// lexicographic tree's combinatorics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "core/builder.hpp"
#include "core/tree_view.hpp"
#include "core/validate.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace plt::core {
namespace {

std::map<PosVec, Count> plt_contents(const Plt& plt) {
  std::map<PosVec, Count> out;
  plt.for_each([&](Plt::Ref, std::span<const Pos> v,
                   const Partition::Entry& e) {
    out[PosVec(v.begin(), v.end())] = e.freq;
  });
  return out;
}

TEST(TreeView, PaperExampleTree) {
  const auto built =
      build_from_database(plt::testing::paper_table1(), 2);
  const TreeView tree = TreeView::from_plt(built.plt);

  // Paths of Figure 3(b): the five stored vectors share the [1,1] prefix
  // where possible. Root -> 1 -> 1 -> 1 holds ABC (freq 2).
  const auto abc = tree.find(PosVec{1, 1, 1});
  ASSERT_NE(abc, TreeView::kRoot);
  EXPECT_EQ(tree.end_freq(abc), 2u);
  EXPECT_EQ(tree.node(abc).rank, 3u);
  EXPECT_EQ(tree.support(abc), 3u);  // ABC twice, ABCD once

  // ABCD extends the same path: one more child [1].
  const auto abcd = tree.find(PosVec{1, 1, 1, 1});
  ASSERT_NE(abcd, TreeView::kRoot);
  EXPECT_EQ(tree.node(abcd).parent, abc);
  EXPECT_EQ(tree.end_freq(abcd), 1u);

  // Internal nodes carry zero end frequency.
  const auto ab = tree.find(PosVec{1, 1});
  ASSERT_NE(ab, TreeView::kRoot);
  EXPECT_EQ(tree.end_freq(ab), 0u);

  EXPECT_EQ(tree.find(PosVec{4}), TreeView::kRoot);  // no such path
}

TEST(TreeView, RoundTripToPlt) {
  const auto built =
      build_from_database(plt::testing::paper_table1(), 2);
  const TreeView tree = TreeView::from_plt(built.plt);
  const Plt back = tree.to_plt(built.plt.max_rank());
  EXPECT_EQ(plt_contents(back), plt_contents(built.plt));
}

TEST(TreeView, PathReconstruction) {
  Plt plt(8);
  plt.add(PosVec{2, 3, 1}, 4);
  const TreeView tree = TreeView::from_plt(plt);
  const auto id = tree.find(PosVec{2, 3, 1});
  ASSERT_NE(id, TreeView::kRoot);
  EXPECT_EQ(tree.path(id), (PosVec{2, 3, 1}));
  EXPECT_EQ(tree.node(id).rank, 6u);
}

TEST(TreeView, ChildrenSortedByPosition) {
  Plt plt(8);
  plt.add(PosVec{3}, 1);
  plt.add(PosVec{1}, 1);
  plt.add(PosVec{2}, 1);
  const TreeView tree = TreeView::from_plt(plt);
  const auto root_children = tree.children(TreeView::kRoot);
  ASSERT_EQ(root_children.size(), 3u);
  EXPECT_EQ(tree.position(root_children[0]), 1u);
  EXPECT_EQ(tree.position(root_children[1]), 2u);
  EXPECT_EQ(tree.position(root_children[2]), 3u);
}

TEST(TreeView, SharedPrefixesShareNodes) {
  Plt plt(8);
  plt.add(PosVec{1, 1, 1}, 1);
  plt.add(PosVec{1, 1, 2}, 1);
  plt.add(PosVec{1, 2}, 1);
  const TreeView tree = TreeView::from_plt(plt);
  // Nodes: [1], [1,1], [1,1,1], [1,1,2], [1,2] -> 5 (+ root).
  EXPECT_EQ(tree.node_count(), 6u);
}

TEST(TreeView, FullLexicographicTreeNodeCount) {
  // Figure 1's tree over n items has 2^n - 1 nodes (every non-empty subset).
  for (const Rank n : {1u, 2u, 3u, 4u, 6u}) {
    const TreeView tree = TreeView::full_lexicographic(n);
    EXPECT_EQ(tree.node_count(), (1u << n)) << n;  // + root
  }
}

TEST(TreeView, FullLexicographicFigure2Positions) {
  const TreeView tree = TreeView::full_lexicographic(4);
  // Node C under A (= path ranks {1,3}) sits at position 2 — the paper's
  // Definition 4.1.2 example.
  const auto a = tree.find(PosVec{1});
  ASSERT_NE(a, TreeView::kRoot);
  const auto c_under_a = tree.child(a, 2);
  ASSERT_NE(c_under_a, TreeView::kRoot);
  EXPECT_EQ(tree.node(c_under_a).rank, 3u);
}

TEST(TreeView, FullLexicographicGuard) {
  EXPECT_DEATH(TreeView::full_lexicographic(17), "guarded");
}

TEST(TreeView, RenderingContainsStructure) {
  Plt plt(4);
  plt.add(PosVec{1, 2}, 7);
  const TreeView tree = TreeView::from_plt(plt);
  const auto text = tree.to_string();
  EXPECT_NE(text.find("(root)"), std::string::npos);
  EXPECT_NE(text.find("freq=7"), std::string::npos);
  EXPECT_NE(text.find("rank 3"), std::string::npos);
}

TEST(TreeView, RankedRowsBuildTheTableFormsTree) {
  // Algorithm 1 straight into the tree equals converting the table form:
  // node for node, in preorder, with the same path supports.
  const auto built = build_from_database(plt::testing::paper_table1(), 1);
  const TreeView direct =
      TreeView::from_ranked_rows(built.view.db, built.plt.max_rank());
  const TreeView converted = TreeView::from_plt(built.plt);
  ASSERT_EQ(direct.node_count(), converted.node_count());
  for (TreeView::NodeId id = 0; id < direct.node_count(); ++id) {
    EXPECT_EQ(direct.node(id).parent, converted.node(id).parent) << id;
    EXPECT_EQ(direct.node(id).rank, converted.node(id).rank) << id;
    EXPECT_EQ(direct.support(id), converted.support(id)) << id;
  }
  EXPECT_EQ(direct.support(TreeView::kRoot), 6u);  // every row
}

TEST(TreeView, RankBucketsListEveryNodeOfTheirRankInPreorder) {
  const auto built = build_from_database(plt::testing::paper_table1(), 2);
  const TreeView tree = TreeView::from_plt(built.plt);
  std::size_t listed = 0;
  Count rank4_support = 0;
  for (Rank j = 1; j <= tree.max_rank(); ++j) {
    const auto nodes = tree.bucket(j);
    EXPECT_TRUE(std::is_sorted(nodes.begin(), nodes.end())) << j;
    for (const TreeView::NodeId id : nodes) {
      EXPECT_EQ(tree.node(id).rank, j);
      if (j == 4) rank4_support += tree.support(id);
    }
    listed += nodes.size();
  }
  EXPECT_EQ(listed, tree.node_count() - 1);
  // Σ support over a rank's nodes is that item's support (D: TIDs 3-6).
  EXPECT_EQ(rank4_support, 4u);
}

TEST(TreeView, ZeroFrequencyEntriesAddNoPath) {
  Plt plt(4);
  plt.add(PosVec{1, 1}, 2);
  plt.add(PosVec{3}, 1);
  plt.partition(1)->entry(0).freq = 0;  // a removal tombstone
  const TreeView tree = TreeView::from_plt(plt);
  EXPECT_EQ(tree.node_count(), 3u);  // root, [1], [1,1]
  EXPECT_EQ(tree.find(PosVec{3}), TreeView::kRoot);
}

TEST(TreeView, WalkDepths) {
  Plt plt(4);
  plt.add(PosVec{1, 1, 1}, 1);
  const TreeView tree = TreeView::from_plt(plt);
  std::vector<std::size_t> depths;
  tree.walk([&](TreeView::NodeId, std::size_t depth) {
    depths.push_back(depth);
  });
  EXPECT_EQ(depths, (std::vector<std::size_t>{1, 2, 3}));
}

/// `count` random rows over ranks 1..max_rank (duplicates, prefixes of
/// one another and empty rows included), weights 1..5, as rank lists.
std::vector<std::vector<Rank>> random_rank_rows(Rng& rng, std::size_t count,
                                                Rank max_rank) {
  std::vector<std::vector<Rank>> out(count);
  for (auto& row : out)
    for (Rank r = 1; r <= max_rank; ++r)
      if (rng.next_bool(0.35)) row.push_back(r);
  for (std::size_t i = 1; i + 1 < count; i += 7) {
    out[i + 1] = out[i];  // an exact duplicate
    if (!out[i].empty()) out[i].pop_back();  // a prefix of its neighbour
  }
  return out;
}

TreeView::Rows rows_of(const std::vector<std::vector<Rank>>& rank_rows,
                       Rng& rng) {
  TreeView::Rows rows;
  for (const auto& ranks : rank_rows) {
    PosVec gaps;
    Rank prev = 0;
    for (const Rank r : ranks) gaps.push_back(r - std::exchange(prev, r));
    rows.add(gaps, 1 + rng.next_below(5));
  }
  return rows;
}

void expect_same_tree(const TreeView& got, const TreeView& want) {
  ASSERT_EQ(got.max_rank(), want.max_rank());
  ASSERT_EQ(got.node_count(), want.node_count());
  for (TreeView::NodeId id = 0; id < want.node_count(); ++id) {
    EXPECT_EQ(got.node(id).parent, want.node(id).parent) << id;
    EXPECT_EQ(got.node(id).rank, want.node(id).rank) << id;
    EXPECT_EQ(got.support(id), want.support(id)) << id;
  }
  for (Rank j = 1; j <= want.max_rank(); ++j) {
    const auto a = got.bucket(j), b = want.bucket(j);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << j;
  }
}

TEST(TreeView, RebuildInPlaceMatchesFromRows) {
  // One tree rebuilt three times: a large random row set, a smaller one
  // given in lexicographic order (no sort needed), then a wider alphabet.
  // Each rebuild equals from_rows on the same rows and validates; the
  // smaller rebuild keeps every array's capacity.
  Rng rng(11);
  TreeView tree(1);
  auto large = random_rank_rows(rng, 400, 12);
  auto small = random_rank_rows(rng, 60, 12);
  std::sort(small.begin(), small.end());
  const auto wide = random_rank_rows(rng, 200, 40);

  const TreeView::Rows large_rows = rows_of(large, rng);
  tree.rebuild(large_rows, 12, "RebuildInPlaceMatchesFromRows");
  expect_same_tree(tree, TreeView::from_rows(large_rows, 12, "large"));
  EXPECT_TRUE(validate(tree).ok());
  const std::size_t large_bytes = tree.memory_usage();

  const TreeView::Rows small_rows = rows_of(small, rng);
  tree.rebuild(small_rows, 12, "RebuildInPlaceMatchesFromRows");
  expect_same_tree(tree, TreeView::from_rows(small_rows, 12, "small"));
  EXPECT_TRUE(validate(tree).ok());
  EXPECT_EQ(tree.memory_usage(), large_bytes);

  const TreeView::Rows wide_rows = rows_of(wide, rng);
  tree.rebuild(wide_rows, 40, "RebuildInPlaceMatchesFromRows");
  expect_same_tree(tree, TreeView::from_rows(wide_rows, 40, "wide"));
  EXPECT_TRUE(validate(tree).ok());
}

/// Weighted rank rows, kept apart from TreeView::Rows so that one set can
/// be handed to the builders in several orders.
using WeightedRows = std::vector<std::pair<std::vector<Rank>, Count>>;

WeightedRows weighted(const std::vector<std::vector<Rank>>& rank_rows,
                      Rng& rng) {
  WeightedRows out;
  for (const auto& ranks : rank_rows)
    out.emplace_back(ranks, 1 + rng.next_below(5));
  return out;
}

TreeView::Rows rows_in_order(const WeightedRows& rows) {
  TreeView::Rows out;
  for (const auto& [ranks, weight] : rows) {
    PosVec gaps;
    Rank prev = 0;
    for (const Rank r : ranks) gaps.push_back(r - std::exchange(prev, r));
    out.add(gaps, weight);
  }
  return out;
}

/// Builds `rows` pre-sorted (an order the builder takes as it is), then
/// shuffled and reversed through from_rows and through rebuild() of one
/// reused tree: every tree must equal the pre-sorted one node for node and
/// validate.
void expect_order_free(WeightedRows rows, Rank max_rank, Rng& rng) {
  std::sort(rows.begin(), rows.end());
  const TreeView::Rows sorted = rows_in_order(rows);
  const TreeView want = TreeView::from_rows(sorted, max_rank, "sorted");
  EXPECT_TRUE(validate(want).ok());
  TreeView reused(1);
  EXPECT_FALSE(reused.rebuild(sorted, max_rank, "sorted rebuild"));
  expect_same_tree(reused, want);

  WeightedRows shuffled = rows;
  rng.shuffle(shuffled);
  WeightedRows reversed(rows.rbegin(), rows.rend());
  for (const WeightedRows* order : {&shuffled, &reversed}) {
    const TreeView::Rows given = rows_in_order(*order);
    const TreeView built = TreeView::from_rows(given, max_rank, "given");
    expect_same_tree(built, want);
    EXPECT_TRUE(validate(built).ok());
    reused.rebuild(given, max_rank, "given rebuild");
    expect_same_tree(reused, want);
    EXPECT_TRUE(validate(reused).ok());
  }
}

TEST(TreeView, BuildersMatchThePreSortedTree) {
  Rng rng(23);
  // Duplicates, prefixes and empty rows, in ranges wide enough to be
  // distributed several ranks deep and narrow enough to finish small.
  for (const std::size_t count : {1u, 2u, 7u, 40u, 300u, 2000u})
    expect_order_free(weighted(random_rank_rows(rng, count, 12), rng), 12,
                      rng);
  // A single row, an empty row alone, and many identical rows.
  expect_order_free({{{2, 5, 9}, 4}}, 9, rng);
  expect_order_free({{{}, 3}}, 9, rng);
  expect_order_free(WeightedRows(500, {{1, 3, 4, 8}, 2}), 8, rng);
}

TEST(TreeView, BuildersMatchThePreSortedTreeOnLongRows) {
  // 12-rank rows at max_rank 300 share up to 10 leading ranks, more than
  // fit a 64-bit key at 9 bits a rank: they differ only deep down.
  Rng rng(29);
  std::vector<std::vector<Rank>> long_rows;
  for (std::size_t i = 0; i < 600; ++i) {
    std::vector<Rank> row;
    const std::size_t shared = 6 + rng.next_below(5);
    for (Rank r = 1; row.size() < shared; r += 3) row.push_back(r);
    Rank r = row.back();
    while (row.size() < 12) {
      r += 1 + static_cast<Rank>(rng.next_below(20));
      row.push_back(r);
    }
    if (rng.next_bool(0.2)) row.resize(shared + rng.next_below(12 - shared));
    long_rows.push_back(std::move(row));
  }
  expect_order_free(weighted(long_rows, rng), 300, rng);
}

TEST(TreeView, BuildersMatchThePreSortedTreeAtAlphabetEdges) {
  // One rank, and the alphabets on either side of a byte.
  Rng rng(31);
  for (const Rank max_rank : {1u, 255u, 256u}) {
    std::vector<std::vector<Rank>> rows;
    for (std::size_t i = 0; i < 400; ++i) {
      std::vector<Rank> row;
      for (Rank r = 1; r <= max_rank; ++r)
        if (rng.next_bool(max_rank == 1 ? 0.7 : 0.02)) row.push_back(r);
      if (max_rank > 1 && (row.empty() || row.back() < max_rank) &&
          rng.next_bool(0.3))
        row.push_back(max_rank);
      rows.push_back(std::move(row));
    }
    expect_order_free(weighted(rows, rng), max_rank, rng);
  }
}

TEST(TreeView, RankedRowsBuildTheSameTreeInAnyRowOrder) {
  Rng rng(37);
  auto rank_rows = random_rank_rows(rng, 3000, 16);
  std::sort(rank_rows.begin(), rank_rows.end());
  tdb::Database sorted_db;
  for (const auto& row : rank_rows) sorted_db.add(row);
  rng.shuffle(rank_rows);
  tdb::Database shuffled_db;
  for (const auto& row : rank_rows) shuffled_db.add(row);
  const TreeView want = TreeView::from_ranked_rows(sorted_db, 16);
  const TreeView got = TreeView::from_ranked_rows(shuffled_db, 16);
  expect_same_tree(got, want);
  EXPECT_TRUE(validate(got).ok());
  EXPECT_EQ(got.support(TreeView::kRoot), want.support(TreeView::kRoot));
}

}  // namespace
}  // namespace plt::core
